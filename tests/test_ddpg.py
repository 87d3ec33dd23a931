"""Learner mechanics: acting, exploration noise, replay, update rules."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from scalar_reference import heading_to_vector
from torus_pursuit.checkpoint import _next_obs_breaks
from torus_pursuit.config import DdpgConfig
from torus_pursuit.ddpg import (
    ReplayBuffer,
    TeamLearner,
    TransitionBatch,
)
from torus_pursuit.errors import BufferNotReadyError
from torus_pursuit.nn import backward, forward


def make_learner(obs_dim=4, hidden=(8, 8), critic_hidden=(8, 8), seed=0, n=1, **kw):
    """A team whose config section holds `kw` over the defaults; the tests
    draw their own batches, so the section's batch fits any ring."""
    ddpg = DdpgConfig(actor_hidden=hidden, critic_hidden=critic_hidden,
                      buffer_capacity=kw.pop("buffer_capacity", 1000), batch_size=1, **kw)
    return TeamLearner(n, obs_dim, ddpg, np.random.default_rng(seed))


def push_random(buf, rng, terminal=False, reward=None):
    """One step of random observations and team reward; each agent's next
    observation starts with a random unit heading vector, its action."""
    next_obs = rng.standard_normal((buf.agents, buf.obs_dim))
    next_obs[:, :2] = [heading_to_vector(t)
                       for t in rng.uniform(-math.pi, math.pi, size=buf.agents)]
    buf.push(rng.normal() if reward is None else reward, next_obs, terminal,
             obs=rng.standard_normal((buf.agents, buf.obs_dim)))


def lone_batch(obs, actions, rewards, next_obs, terminals):
    """A batch for the n=1 team: each array gains the agent axis."""
    return TransitionBatch(*(np.asarray(a, dtype=np.float64)[None]
                             for a in (obs, actions, rewards, next_obs, terminals)))


def head(rows, noise=None, seed=0, **kw):
    """The headings a team of ``kw`` acts with, (act, act_explore), when its
    actors' raw outputs are ``rows`` (n, 2) and its noise starts from
    ``noise``; and the noise rows act_explore used."""
    team = make_learner(n=len(rows), **kw)
    team._raw_actions = lambda obs: np.array(rows, dtype=np.float64)[None]
    if noise is not None:
        team.noise = np.array(noise, dtype=np.float64)
    obs = np.zeros((1, len(rows), 4))
    acted = team.act(obs)[0].tolist()
    explored = team.act_explore(obs, [np.random.default_rng(seed + i) for i in range(len(rows))])
    return acted, explored[0].tolist(), team.noise


# raw outputs where the rounding of a row's norm decides, or no norm exists
head_value = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-13, -7e-13,
                     1e-12, 1e300, -1.7976931348623157e308, math.inf, -math.inf, math.nan]),
    st.floats(-10.0, 10.0),
    st.floats(allow_nan=False, allow_infinity=False),
    # full mantissas, on which the 1-D and the row-wise norm round apart
    st.integers(0, 2**32).map(lambda seed: float(np.random.default_rng(seed).normal())),
)


class TestActionHead:
    def test_heading_extraction(self):
        acted, _, _ = head([[0.0, 1.0], [-1.0, 0.0]])
        assert acted[0] == pytest.approx(math.pi / 2)
        assert acted[1] == -math.pi  # +pi maps to -pi

    def test_normalization_invariance(self):
        acted, _, _ = head([[-3.0, 0.0], [-0.5, 0.0], [3.0, 4.0], [0.003, 0.004]])
        assert acted[0] == acted[1] == pytest.approx(-math.pi)  # normalized heading convention
        assert acted[2] == acted[3]

    def test_vanishing_norm_fallback(self):
        acted, _, _ = head([[1e-15, -1e-15], [0.0, -0.0]])
        assert acted == [0.0, 0.0]  # east
        # a noisy action that cancels its unit vector falls back too
        _, explored, used = head([[0.0, 2.0]], noise=[[0.0, -1.0]], theta_ou=0.0, sigma_ou=0.0)
        assert used.tolist() == [[0.0, -1.0]] and explored == [0.0]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_head_matches_agent_by_agent_reference(self, data):
        # every row rounds as the 1-D norm of that row alone, whatever the
        # team size: the row-wise np.linalg.norm would differ in the last bit
        n = data.draw(st.integers(1, 8), label="n")
        rows = data.draw(st.lists(st.tuples(head_value, head_value), min_size=n, max_size=n),
                         label="rows")
        noise = data.draw(st.lists(st.tuples(head_value, head_value), min_size=n, max_size=n),
                          label="noise")
        raw = np.array(rows, dtype=np.float64)
        with np.errstate(all="ignore"):  # overflowing and NaN rows are drawn on purpose
            acted, explored, used = head(rows, noise)
            want = ref.act(raw), ref.act_explore(raw, used)
        assert same_bits(np.array(acted), np.array(want[0]))
        assert same_bits(np.array(explored), np.array(want[1]))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_batched_act_matches_each_episode_alone(self, data):
        # one row-wise forward pass over E episodes gives each episode the
        # raw outputs and headings of its own E=1 call, and of the one-row
        # (n, 1, obs_dim) batch, whatever E, the widths and the team size
        n = data.draw(st.integers(1, 8), label="n")
        episodes = data.draw(st.one_of(st.sampled_from([2, 3, 5, 31, 127, 211, 293]),
                                       st.integers(1, 300)), label="E")
        obs_dim = data.draw(st.integers(2, 130), label="obs_dim")
        hidden = data.draw(st.lists(st.integers(1, 130), min_size=1, max_size=2), label="hidden")
        values = data.draw(st.lists(head_value, min_size=1, max_size=12), label="values")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        team = make_learner(obs_dim, tuple(hidden), (4,), seed=seed, n=n)
        obs = np.random.default_rng(seed).choice(values, size=(episodes, n, obs_dim))
        with np.errstate(all="ignore"):  # overflowing and NaN rows are drawn on purpose
            raw = team._raw_actions(obs).copy()
            headings = team.act(obs)
            for e in range(episodes):
                assert same_bits(team._raw_actions(obs[e : e + 1])[0], raw[e])
                assert same_bits(team.act(obs[e : e + 1])[0], headings[e])
            one_row, _ = forward(team.actor, obs[0][:, None])
        assert headings.shape == (episodes, n)
        assert same_bits(one_row[:, 0], raw[0])

    def test_act_deterministic(self):
        learner = make_learner()
        obs = np.array([[[0.1, -0.2, 0.3, 0.4]]])
        assert learner.act(obs).tolist() == learner.act(obs).tolist()

    def test_act_refuses_rows_of_another_shape(self):
        learner = make_learner()
        for obs in (np.zeros((1, 4)), np.zeros((1, 2, 4)), np.zeros((3, 1, 5))):
            with pytest.raises(ValueError, match=r"want \(episodes, 1, 4\)"):
                learner.act(obs)
        # one noise process per agent explores one episode
        with pytest.raises(ValueError, match="explores one episode, not 2"):
            learner.act_explore(np.zeros((2, 1, 4)), [np.random.default_rng(0)])

    def test_transition_rejects_non_unit_action(self):
        # the action is the heading columns of the next observation
        buf = ReplayBuffer(capacity=4, obs_dim=4, agents=2)
        next_obs = np.zeros((2, 4))
        next_obs[:, :2] = [[1.0, 0.0], [0.5, 0.0]]
        with pytest.raises(ValueError, match="agent 1: the next observation's heading columns "
                                             "have norm 0.5"):
            buf.push(0.0, next_obs, False, obs=np.zeros((2, 4)))
        with pytest.raises(ValueError, match="agent 0"):
            buf.push(0.0, next_obs * np.nan, False, obs=np.zeros((2, 4)))
        next_obs[1, 0] = 1.0
        with pytest.raises(ValueError, match="do not fit"):
            buf.push(0.0, next_obs[0], False, obs=np.zeros(4))
        with pytest.raises(ValueError, match="do not fit"):
            buf.push(0.0, next_obs, False, obs=np.zeros(4))
        with pytest.raises(ValueError, match="do not fit"):  # one reward for the team
            buf.push([0.0, 0.0], next_obs, False, obs=np.zeros((2, 4)))
        # a step that continues no episode: not an IndexError on the empty table
        with pytest.raises(ValueError, match="an empty ring holds no step to continue"):
            buf.push(0.0, next_obs, False)
        assert len(buf) == 0
        with pytest.raises(ValueError, match="no 2 heading columns"):
            ReplayBuffer(capacity=4, obs_dim=1)

    def test_normalization_jacobian_matches_finite_differences(self):
        # derivative of u -> u/||u|| away from vanishing norms
        rng = np.random.default_rng(7)
        for _ in range(50):
            u = rng.standard_normal(2)
            if np.linalg.norm(u) < 1e-6:
                continue
            g = rng.standard_normal(2)  # downstream gradient wrt normalized vector
            n = np.linalg.norm(u)
            a = u / n
            analytic = (g - np.dot(g, a) * a) / n
            h = 1e-7
            for i in range(2):
                up, dn = u.copy(), u.copy()
                up[i] += h
                dn[i] -= h
                num = (np.dot(up / np.linalg.norm(up), g) - np.dot(dn / np.linalg.norm(dn), g)) / (2 * h)
                assert analytic[i] == pytest.approx(num, rel=1e-6, abs=1e-6)


class TestExploration:
    def test_zero_sigma_matches_act(self):
        learner = make_learner(sigma_ou=0.0)
        obs = np.array([[[0.5, 0.5, -0.5, 0.2]]])
        rng = np.random.default_rng(3)
        assert learner.act_explore(obs, [rng]).tolist() == learner.act(obs).tolist()

    def test_noise_long_run_mean_near_zero(self):
        team = make_learner(n=2, theta_ou=0.15, sigma_ou=0.2)
        rngs = [np.random.default_rng(11), np.random.default_rng(12)]
        samples = np.empty((100_000, 2, 2))
        for sample in samples:
            team._advance_noise(rngs)
            sample[...] = team.noise
        # stationary variance sigma^2/(theta*(2-theta)); mean-of-AR1 standard error
        var_x = 0.2**2 / (0.15 * (2 - 0.15))
        rho = 1 - 0.15
        se = math.sqrt(var_x * (1 + rho) / (1 - rho) / len(samples))
        assert np.all(np.abs(samples.mean(axis=0)) < 3 * se)

    def test_noise_rows_follow_each_agents_recursion(self):
        # row i is x <- x + theta*(0 - x) + sigma*g with g drawn from rngs[i]
        team = make_learner(n=3, theta_ou=0.3, sigma_ou=0.7)
        rngs = [np.random.default_rng(s) for s in (1, 2, 3)]
        refs = [np.random.default_rng(s) for s in (1, 2, 3)]
        want = np.zeros((3, 2))
        for _ in range(20):
            team._advance_noise(rngs)
            want = np.array([x + 0.3 * (0.0 - x) + 0.7 * rng.standard_normal(2)
                             for x, rng in zip(want, refs)])
            assert np.array_equal(team.noise, want)
        with pytest.raises(ValueError, match="2 random streams for 3 agents"):
            team._advance_noise(rngs[:2])

    def test_noise_reset(self):
        team = make_learner(n=2)
        team.act_explore(np.zeros((1, 2, 4)), [np.random.default_rng(0)] * 2)
        assert not np.array_equal(team.noise, np.zeros((2, 2)))
        team.reset_noise()
        assert np.array_equal(team.noise, np.zeros((2, 2)))

    def test_same_seed_same_action_sequence(self):
        learner = make_learner()
        obs = np.array([[[0.1, 0.2, 0.3, 0.4]]])

        def sequence(seed):
            learner.reset_noise()
            rng = np.random.default_rng(seed)
            return [learner.act_explore(obs, [rng]).tolist() for _ in range(20)]

        assert sequence(5) == sequence(5)
        assert sequence(5) != sequence(6)


def push_reward(buf, r):
    buf.push(float(r), np.array([[1.0, 0.0]]), False, obs=np.array([[float(r), 0.0]]))


class TestReplayBuffer:
    def test_fifo_eviction(self):
        buf = ReplayBuffer(capacity=3, obs_dim=2)
        for r in range(4):
            push_reward(buf, r)
        assert len(buf) == 3
        stored = sorted(buf._rewards[:3].tolist())
        assert stored == [1.0, 2.0, 3.0]  # reward 0 (oldest) evicted

    def test_sample_deterministic_per_seed(self):
        rng = np.random.default_rng(13)
        buf = ReplayBuffer(capacity=50, obs_dim=2)
        for _ in range(50):
            push_random(buf, rng)
        b1 = buf.sample(8, [np.random.default_rng(9)])
        b2 = buf.sample(8, [np.random.default_rng(9)])
        assert np.array_equal(b1.obs, b2.obs)
        assert np.array_equal(b1.rewards, b2.rewards)

    def test_underfilled_not_ready(self):
        buf = ReplayBuffer(capacity=10, obs_dim=2)
        push_random(buf, np.random.default_rng(0))
        with pytest.raises(BufferNotReadyError):
            buf.sample(2, [np.random.default_rng(0)])

    def test_sampling_uniformity(self):
        buf = ReplayBuffer(capacity=10, obs_dim=2)
        for r in range(10):
            push_reward(buf, r)
        sample_rng = np.random.default_rng(19)
        draws = np.concatenate(
            [buf.sample(10, [sample_rng]).rewards[0] for _ in range(10_000)]
        )
        counts = np.bincount(draws.astype(int), minlength=10)
        expected = 10_000
        se = math.sqrt(100_000 * 0.1 * 0.9)
        assert np.all(np.abs(counts - expected) < 3 * se)

    def test_each_agent_samples_its_own_ring_with_its_own_stream(self):
        rng = np.random.default_rng(21)
        team = ReplayBuffer(capacity=8, obs_dim=3, agents=3)
        for _ in range(12):
            push_random(team, rng)
        lone = ReplayBuffer(capacity=8, obs_dim=3)
        batch = team.sample(5, [np.random.default_rng(s) for s in (1, 2, 3)])
        for i, seed in enumerate((1, 2, 3)):
            copy_ring(team, i, lone)
            alone = lone.sample(5, [np.random.default_rng(seed)])
            for name in ("obs", "actions", "rewards", "next_obs", "terminals"):
                assert np.array_equal(getattr(batch, name)[i], getattr(alone, name)[0]), name


    def test_ring_arrays_hold_each_fact_once(self):
        # obs per agent-transition; the team's reward and terminal flag and
        # one int32 end-table row number per slot; an empty end table: no
        # dense next_obs ring, no action ring, no per-agent reward copies
        for n, obs_dim, capacity in [(3, 8, 100), (1, 4, 7)]:
            buf = make_learner(obs_dim, n=n, buffer_capacity=capacity).buffer
            arrays = [a for a in vars(buf).values() if isinstance(a, np.ndarray)]
            assert sum(a.nbytes for a in arrays) == capacity * (n * obs_dim * 8 + 8 + 8 + 4)

    def test_action_is_the_next_observations_heading(self):
        rng = np.random.default_rng(5)
        buf = ReplayBuffer(capacity=6, obs_dim=4, agents=2)
        for k in range(9):
            push_random(buf, rng, terminal=k % 4 == 0)
        batch = buf.sample(6, [np.random.default_rng(s) for s in (1, 2)])
        assert np.array_equal(batch.actions, batch.next_obs[..., :2])
        assert np.allclose(np.hypot(*np.moveaxis(batch.actions, -1, 0)), 1.0)


# -0.0 against +0.0 and a NaN payload against np.nan's are the bitwise near misses
ALPHABET = np.array([0.0, -0.0, 1.0, np.nan,
                     np.array(0x7FF8_0000_0000_0001, dtype=np.uint64).view(np.float64)])
# unit heading columns, among them the near misses of a signed zero
HEADINGS = np.array([[1.0, 0.0], [1.0, -0.0], [0.0, 1.0], [-0.0, 1.0], [-1.0, 0.0], [0.6, 0.8]])


@st.composite
def push_sequences(draw):
    """A ring's shape and pushes of (chained, obs, next_obs, terminal): a
    chained push's obs is the previous push's next_obs, any other one starts
    an episode, whether or not the previous push was terminal. Every row
    starts with unit heading columns."""
    agents, obs_dim, capacity = draw(st.integers(1, 3)), draw(st.integers(2, 3)), draw(st.integers(1, 6))
    cells = agents * (obs_dim - 2)
    rows = st.tuples(
        st.lists(st.integers(0, len(HEADINGS) - 1), min_size=agents, max_size=agents),
        st.lists(st.integers(0, len(ALPHABET) - 1), min_size=cells, max_size=cells),
    ).map(lambda ix: np.concatenate(
        (HEADINGS[ix[0]], ALPHABET[ix[1]].reshape(agents, obs_dim - 2)), axis=1))
    pushes = draw(st.lists(st.tuples(st.booleans(), rows, rows, st.booleans()), max_size=20))
    return agents, obs_dim, capacity, pushes


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def rows(*agent_rows):
    return np.array(agent_rows, dtype=np.float64)


NAN_PAYLOAD = ALPHABET[4]


@settings(max_examples=200, deadline=None)
@given(case=push_sequences(), seed=st.integers(0, 2**32 - 1))
# an episode begun with a first obs that differs from the last next_obs only
# by -0.0 against +0.0 (in a heading column, then in another one), then only
# by a NaN payload, then not at all; a wrapped ring of one slot
@example(case=(2, 3, 3, [(False, rows([1, 0, 1], [1, 0, 1]), rows([1, 0, -0.0], [-0.0, 1, 1]), True),
                         (False, rows([1, 0, 0.0], [0.0, 1, 1]), rows([1, 0, 1], [1, 0, 1]), False)]),
         seed=0)
@example(case=(1, 3, 4, [(False, rows([1, 0, 1]), rows([1, 0, np.nan]), False),
                         (False, rows([1, 0, NAN_PAYLOAD]), rows([0, 1, 1]), False),
                         (True, rows([0, 1, 0.0]), rows([0, 1, -0.0]), False)]), seed=1)
@example(case=(2, 2, 1, [(False, rows([1, 0], [0, 1]), rows([0, 1], [1, 0]), False),
                         (True, rows([1, 0], [1, 0]), rows([-0.0, 1], [1, 0]), True),
                         (False, rows([0.0, 1], [1, 0]), rows([1, 0], [0, 1]), False)]), seed=2)
@example(case=(1, 3, 3, [(False, rows([1, 0, 1]), rows([0, 1, NAN_PAYLOAD]), False),
                         (False, rows([0, 1, NAN_PAYLOAD]), rows([1, 0, -0.0]), True)]), seed=3)
def test_ring_holds_every_pushed_transition(case, seed):
    agents, obs_dim, capacity, pushes = case
    buf = ReplayBuffer(capacity, obs_dim, agents)
    pushed, began = [], []
    for k, (chained, obs, next_obs, terminal) in enumerate(pushes):
        began.append(not (chained and pushed))
        if began[-1]:
            buf.push(float(k), next_obs, terminal, obs=obs)
        else:  # the step continues from the previous one's next_obs, and passes no obs
            obs = pushed[-1][3]
            buf.push(float(k), next_obs, terminal)
        # the team's reward and flag, seen by every agent; the action is the
        # heading the next observation starts with
        pushed.append((obs, next_obs[:, :2], np.full(agents, float(k)), next_obs,
                       np.full(agents, float(terminal))))
    size = len(buf)
    assert size == min(len(pushes), capacity)
    # filled slot s holds the last transition pushed to it
    held = [max(t for t in range(len(pushes)) if t % capacity == s) for s in range(size)]

    def gathered(field, slots):
        return np.array([[pushed[held[s]][field][i] for s in row] for i, row in enumerate(slots)],
                        dtype=np.float64)

    every = np.tile(np.arange(size), (agents, 1))
    assert same_bits(buf._next_rows(every).reshape(agents, size, obs_dim),
                     gathered(3, every).reshape(agents, size, obs_dim))
    # the checkpoint form: the end table holds exactly the slots whose next
    # push began an episode and the write head, among them every slot where a
    # full scan of any agent's dense rows finds a break, with those slots'
    # rows, and a ring filled from it samples the same next rows
    copy = ReplayBuffer(capacity, obs_dim, agents)
    for name in ("_obs", "_rewards", "_terminals"):
        getattr(copy, name)[...] = getattr(buf, name)
    copy._next, copy._size = buf._next, buf._size
    slots, table_rows = buf.end_table()
    copy.load_end_table(slots, table_rows)
    dense = gathered(3, every).reshape(agents, size, obs_dim)
    breaks = {int(j) for i in range(agents) for j in _next_obs_breaks(buf._obs[i, :size], dense[i])}
    head = {(buf._next - 1) % capacity} if size else set()
    ends = {s for s in range(size) if held[s] + 1 < len(pushes) and began[held[s] + 1]}
    assert slots.dtype == np.int64 and slots.tolist() == sorted(ends | head)
    assert breaks <= ends | head
    assert same_bits(table_rows, dense[:, slots].swapaxes(0, 1))
    assert same_bits(copy._next_rows(every), buf._next_rows(every))
    if size:
        batch = buf.sample(size, [np.random.default_rng([seed, i]) for i in range(agents)])
        idx = np.stack([np.random.default_rng([seed, i]).integers(0, size, size=size)
                        for i in range(agents)])
        for field, name in enumerate(("obs", "actions", "rewards", "next_obs", "terminals")):
            want = gathered(field, idx)
            assert same_bits(getattr(batch, name), want.reshape(getattr(batch, name).shape)), name


class TestCriticUpdate:
    def test_terminal_masks_bootstrap(self):
        learner = make_learner(gamma=0.99)
        rng = np.random.default_rng(23)
        batch = lone_batch(
            obs=rng.standard_normal((4, 4)),
            actions=np.tile([1.0, 0.0], (4, 1)),
            rewards=np.array([1.0, -1.0, 0.5, 2.0]),
            next_obs=rng.standard_normal((4, 4)),
            terminals=np.ones(4),
        )
        # with all-terminal transitions the target is exactly r; loss should be
        # mean (Q - r)^2 computed before any update
        q, _ = forward(learner.critic, np.concatenate([batch.obs, batch.actions], axis=-1))
        expected = float(np.mean((q.ravel() - batch.rewards[0]) ** 2))
        assert learner.critic_update(batch)[0] == pytest.approx(expected, abs=1e-12)

    def test_gamma_zero_fixed_point(self):
        learner = make_learner(gamma=0.0)
        rng = np.random.default_rng(29)
        obs = rng.standard_normal((8, 4))
        actions = np.tile([0.0, 1.0], (8, 1))
        # train the critic to predict r exactly, then the loss must be ~0
        batch = lone_batch(obs, actions, np.zeros(8), obs.copy(), np.zeros(8))
        for w in learner.critic.weights:
            w[...] = 0.0
        for b in learner.critic.biases:
            b[...] = 0.0
        assert learner.critic_update(batch)[0] == pytest.approx(0.0, abs=1e-15)

    def test_hand_built_single_transition_loss(self):
        # tiny fixed nets: loss = (Q(s,a) - (r + gamma * Qt(s', mu_t(s'))))^2
        learner = make_learner(obs_dim=2, hidden=(3,), critic_hidden=(3,), gamma=0.9)
        batch = lone_batch(
            obs=np.array([[0.2, -0.1]]),
            actions=np.array([[1.0, 0.0]]),
            rewards=np.array([0.7]),
            next_obs=np.array([[0.05, 0.3]]),
            terminals=np.zeros(1),
        )
        raw_next, _ = forward(learner.actor_target, batch.next_obs)
        a_next = raw_next / np.linalg.norm(raw_next)
        q_next, _ = forward(learner.critic_target,
                            np.concatenate([batch.next_obs, a_next], axis=-1))
        y = 0.7 + 0.9 * q_next.item()
        x = np.concatenate([batch.obs, batch.actions], axis=-1)
        q, _ = forward(learner.critic, x)
        expected = (q.item() - y) ** 2
        assert learner.critic_update(batch)[0] == pytest.approx(expected, abs=1e-10)


class TestActorUpdate:
    def test_returns_pre_update_mean_q(self):
        learner = make_learner()
        rng = np.random.default_rng(31)
        batch = lone_batch(
            obs=rng.standard_normal((6, 4)),
            actions=np.tile([1.0, 0.0], (6, 1)),
            rewards=np.zeros(6),
            next_obs=rng.standard_normal((6, 4)),
            terminals=np.zeros(6),
        )
        raw, _ = forward(learner.actor, batch.obs)
        a = raw / np.linalg.norm(raw, axis=-1, keepdims=True)
        q, _ = forward(learner.critic, np.concatenate([batch.obs, a], axis=-1))
        assert learner.actor_update(batch)[0] == pytest.approx(float(np.mean(q)), abs=1e-12)

    def test_constant_critic_gives_zero_gradient(self):
        learner = make_learner()
        for w in learner.critic.weights:
            w[...] = 0.0
        for b in learner.critic.biases:
            b[...] = 0.0
        learner.critic.biases[-1][...] = 3.0  # Q == 3 everywhere
        before = [w.copy() for w in learner.actor.weights]
        rng = np.random.default_rng(37)
        batch = lone_batch(
            obs=rng.standard_normal((4, 4)),
            actions=np.tile([1.0, 0.0], (4, 1)),
            rewards=np.zeros(4),
            next_obs=rng.standard_normal((4, 4)),
            terminals=np.zeros(4),
        )
        learner.actor_update(batch)
        for w0, w1 in zip(before, learner.actor.weights):
            assert np.allclose(w0, w1, atol=1e-15)

    def test_full_chain_matches_finite_differences(self):
        # directional probes of mean_b Q(s, normalize(actor(s))) wrt actor params
        learner = make_learner(obs_dim=3, hidden=(5,), critic_hidden=(6,))
        actor, critic = learner.actor, learner.critic
        rng = np.random.default_rng(41)
        obs = rng.standard_normal((1, 5, 3))

        def objective():
            raw, _ = forward(actor, obs)
            a = raw / np.linalg.norm(raw, axis=-1, keepdims=True)
            q, _ = forward(critic, np.concatenate([obs, a], axis=-1))
            return float(np.mean(q))

        raw, actor_cache = forward(actor, obs)
        norms = np.linalg.norm(raw, axis=-1, keepdims=True)
        a = raw / norms
        q, critic_cache = forward(critic, np.concatenate([obs, a], axis=-1))
        _, g_in = backward(critic, critic_cache, np.full((1, 5, 1), 1.0 / 5))
        g_a = g_in[..., 3:]
        g_u = (g_a - np.sum(g_a * a, axis=-1, keepdims=True) * a) / norms
        grads, _ = backward(actor, actor_cache, g_u)

        flat = grads[0]
        arrays = actor.weights + actor.biases
        worst = 0.0
        h = 1e-6
        for _ in range(40):
            direction = [rng.standard_normal(arr.shape) for arr in arrays]
            norm = math.sqrt(sum(float(np.sum(d**2)) for d in direction))
            direction = [d / norm for d in direction]
            analytic = float(
                np.dot(flat, np.concatenate([d.ravel() for d in direction]))
            )
            for arr, d in zip(arrays, direction):
                arr += h * d
            up = objective()
            for arr, d in zip(arrays, direction):
                arr -= 2 * h * d
            down = objective()
            for arr, d in zip(arrays, direction):
                arr += h * d
            numeric = (up - down) / (2 * h)
            scale = max(abs(analytic), abs(numeric), 1e-8)
            worst = max(worst, abs(analytic - numeric) / scale)
        assert worst < 1e-4

    def test_single_ascent_step_does_not_decrease_q(self):
        learner = make_learner(obs_dim=3, hidden=(6,), critic_hidden=(6,), lr_actor=1e-3)
        rng = np.random.default_rng(43)
        obs = rng.standard_normal((8, 3))
        batch = lone_batch(
            obs=obs,
            actions=np.tile([1.0, 0.0], (8, 1)),
            rewards=np.zeros(8),
            next_obs=obs.copy(),
            terminals=np.zeros(8),
        )
        before = learner.actor_update(batch)[0]
        after = learner.actor_update(batch)[0]
        assert after >= before - 1e-12


class TestTargets:
    def test_tau_one_copies_online(self):
        learner = make_learner(tau=1.0)
        learner.critic.weights[0][0, 0, 0] += 1.0
        learner.soft_update_targets()
        assert np.allclose(learner.critic_target.weights[0], learner.critic.weights[0])

    def test_geometric_convergence(self):
        learner = make_learner(tau=0.5)
        learner.actor.weights[0][...] = 1.0
        learner.actor_target.weights[0][...] = 0.0
        gaps = []
        for _ in range(5):
            learner.soft_update_targets()
            gaps.append(float(np.max(np.abs(learner.actor_target.weights[0] - 1.0))))
        for a, b in zip(gaps, gaps[1:]):
            assert b == pytest.approx(a / 2, rel=1e-12)

    def test_betweenness_after_every_call(self):
        learner = make_learner(tau=0.001)
        rng = np.random.default_rng(47)
        for _ in range(5):
            for w in learner.critic.weights:
                w += rng.standard_normal(w.shape) * 0.1
            t_before = [w.copy() for w in learner.critic_target.weights]
            learner.soft_update_targets()
            for tb, o, t in zip(t_before, learner.critic.weights, learner.critic_target.weights):
                lo = np.minimum(tb, o) - 1e-15
                hi = np.maximum(tb, o) + 1e-15
                assert np.all(t >= lo) and np.all(t <= hi)


NETWORKS = ("actor", "critic", "actor_target", "critic_target")


def copy_ring(team, i, lone):
    """Copies agent i of a team's ring and the team's rewards and terminal
    flags into the ring of a lone agent, the next observations through the
    checkpoint form."""
    lone._obs[0] = team._obs[i]
    lone._rewards[...], lone._terminals[...] = team._rewards, team._terminals
    lone._next, lone._size = team._next, team._size
    slots, table_rows = team.end_table()
    lone.load_end_table(slots, table_rows[:, i : i + 1])


class TestDecentralization:
    def test_learners_share_no_arrays(self):
        rng = np.random.default_rng(53)
        team = make_learner(n=3)
        for k in range(5):
            push_random(team.buffer, rng, terminal=k == 2)
        per_agent = []
        for i in range(3):
            arrays = []
            for net in NETWORKS:
                weights, biases = getattr(team, net).layers(getattr(team, net).flat[i])
                arrays += weights + biases
            arrays += [state.m[i] for state in (team.adam_actor, team.adam_critic)]
            arrays += [state.v[i] for state in (team.adam_actor, team.adam_critic)]
            # the rewards and terminal flags are the team's, not an agent's
            arrays += [team.buffer._obs[i], team.buffer._end_rows[:, i]]
            per_agent.append(arrays + [team.noise[i]])
        for i in range(3):
            for j in range(i + 1, 3):
                for a in per_agent[i]:
                    assert not any(np.shares_memory(a, b) for b in per_agent[j])
        # mutating one agent leaves the others' outputs unchanged
        obs = rng.standard_normal((1, 3, 4))
        before = team.act(obs)[0].tolist()
        team.actor.weights[0][0][...] = 7.0
        assert team.act(obs)[0].tolist()[1:] == before[1:]

    def test_off_policy_batches_train_without_error(self):
        # transitions generated by an arbitrary scripted behavior policy
        learner = make_learner(obs_dim=4, buffer_capacity=256)
        rng = np.random.default_rng(59)
        for _ in range(64):
            push_random(learner.buffer, rng)
        batch = learner.buffer.sample(32, [rng])
        loss = learner.critic_update(batch)
        q = learner.actor_update(batch)
        assert np.isfinite(loss).all() and np.isfinite(q).all()

    def test_other_agents_parameters_never_reach_an_agent(self):
        rng = np.random.default_rng(61)
        team = filled_learner(0, 5, (12, 12), (12, 12, 12), 64, n=3)
        batches = (team.buffer.sample(16, [rng] * 3), team.buffer.sample(16, [rng] * 3))
        other = make_learner(5, (12, 12), (12, 12, 12), n=3)
        other.state[...] = team.state
        for net in NETWORKS:  # agent 1's networks only
            getattr(other, net).flat[1] += rng.standard_normal(getattr(other, net).flat.shape[1])
        results = []
        for learner in (team, other):
            loss = learner.critic_update(batches[0])
            critic_grad = learner._update.critic.gradient.copy()
            mean_q = learner.actor_update(batches[1])
            actor_grad = learner._update.actor.gradient.copy()
            results.append((loss, mean_q, critic_grad, actor_grad, learner.state.copy()))
        for kept in (0, 2):
            for got, want in zip(results[1], results[0]):
                assert np.array_equal(got[kept], want[kept])
        assert not np.array_equal(results[1][0][1], results[0][0][1])


class TestBanditConvergence:
    def test_mean_reward_improves_on_smooth_bandit(self):
        # one-step bandit: fixed observation, reward = cos(heading - target)
        target = 2.0
        obs = np.array([[0.3, -0.7, 0.4, 0.1]])
        learner = make_learner(hidden=(32, 32), critic_hidden=(32, 32), seed=3,
                               gamma=0.5, lr_actor=1e-3, lr_critic=1e-3,
                               buffer_capacity=4096, tau=0.01)
        rng = np.random.default_rng(61)

        def reward(theta):
            return math.cos(theta - target)

        for _ in range(1024):
            theta = float(rng.uniform(-math.pi, math.pi))
            # the action is the heading the next observation starts with
            next_obs = np.concatenate((heading_to_vector(theta), obs[0, 2:]))[None]
            learner.buffer.push(reward(theta), next_obs, True, obs=obs)
        before = reward(learner.act(obs[None])[0, 0])
        for _ in range(2000):
            batch = learner.buffer.sample(64, [rng])
            learner.critic_update(batch)
            learner.actor_update(batch)
            learner.soft_update_targets()
        after = reward(learner.act(obs[None])[0, 0])
        assert after > before
        assert after > 0.9  # ends close to the optimum


def filled_learner(seed, obs_dim, hidden, critic_hidden, transitions, n=1, **kw):
    learner = make_learner(obs_dim, hidden, critic_hidden, seed=seed, n=n,
                           buffer_capacity=transitions, **kw)
    rng = np.random.default_rng(seed + 100)
    for k in range(transitions):
        push_random(learner.buffer, rng, terminal=k % 7 == 0)
    return learner


def update(learner, critic_batch, actor_batch):
    losses = learner.critic_update(critic_batch)
    mean_qs = learner.actor_update(actor_batch)
    learner.soft_update_targets()
    return losses, mean_qs


def agent_slice(batch, i):
    return TransitionBatch(*(getattr(batch, f)[i : i + 1] for f in
                             ("obs", "actions", "rewards", "next_obs", "terminals")))


PAPER_SHAPE = dict(obs_dim=8, hidden=(128, 128), critic_hidden=(128, 128, 128))


class TestScratch:
    def test_update_allocates_nothing_large(self):
        # paper shape: n 3, obs 8, actor 128^2, critic 128^3, batch 512
        team = filled_learner(0, 8, (128, 128), (128, 128, 128), 1024, n=3)
        rngs = [np.random.default_rng(k) for k in range(3)]
        batches = (team.buffer.sample(512, rngs), team.buffer.sample(512, rngs))
        for _ in range(2):
            update(team, *batches)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            update(team, *batches)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, f"transient peak {peak} bytes"

    def test_team_scratch_stays_lean_at_paper_shape(self):
        # every buffer the first update makes and keeps: activations, one
        # input-gradient buffer, the gradient, the critic input
        team = filled_learner(0, 8, (128, 128), (128, 128, 128), 1024, n=3)
        rngs = [np.random.default_rng(k) for k in range(3)]
        batches = (team.buffer.sample(512, rngs), team.buffer.sample(512, rngs))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            update(team, *batches)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert held < 11_000_000, f"team scratch holds {held} bytes"

    def test_shared_scratch_leaks_nothing_between_agents(self):
        # a team of n equals n lone agents (n=1 teams) bit for bit: updates,
        # greedy and exploring headings, and the noise rows through a reset
        for n, (hidden, critic_hidden, rows) in [(2, ((12, 12), (12, 12, 12), 16)),
                                                 (3, ((48, 48), (48, 48, 48), 96)),
                                                 (5, ((12, 12), (12, 12, 12), 16))]:
            team = filled_learner(n, 5, hidden, critic_hidden, 128, n=n, tau=0.05)
            lone = []
            for i in range(n):
                agent = make_learner(5, hidden, critic_hidden, n=1, tau=0.05, buffer_capacity=128)
                agent.state[0] = team.state[i]
                copy_ring(team.buffer, i, agent.buffer)
                lone.append(agent)
            obs = np.linspace(-1.0, 1.0, 5 * n).reshape(n, 5)
            for step in range(4):
                seeds = [10 * step + i for i in range(n)]
                batches = [team.buffer.sample(rows, [np.random.default_rng(s) for s in seeds])
                           for _ in range(2)]
                losses, mean_qs = update(team, *batches)
                headings = team.act(obs[None])[0].tolist()
                if step == 2:
                    team.reset_noise()
                explored = team.act_explore(obs[None], [np.random.default_rng(s) for s in seeds])
                explored = explored[0].tolist()
                for i, agent in enumerate(lone):
                    alone = agent.buffer.sample(rows, [np.random.default_rng(seeds[i])])
                    assert np.array_equal(alone.obs, batches[0].obs[i : i + 1])
                    loss, mean_q = update(agent, *(agent_slice(b, i) for b in batches))
                    assert (loss[0], mean_q[0]) == (losses[i], mean_qs[i])
                    assert agent.act(obs[None, i : i + 1])[0].tolist() == headings[i : i + 1]
                    if step == 2:
                        agent.reset_noise()
                    rng = [np.random.default_rng(seeds[i])]
                    own = agent.act_explore(obs[None, i : i + 1], rng)[0].tolist()
                    assert own == explored[i : i + 1]
                    assert np.array_equal(agent.noise[0].view(np.uint64),
                                          team.noise[i].view(np.uint64))
            for i, agent in enumerate(lone):
                # networks, targets and Adam moments
                assert np.array_equal(team.state[i], agent.state[0])
                assert (agent.adam_actor.step, agent.adam_critic.step) == (4, 4)
            assert not np.array_equal(team.state[0], team.state[1])
