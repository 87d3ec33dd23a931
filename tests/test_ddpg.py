"""Learner mechanics: acting, exploration noise, replay, update rules."""

import math
import tracemalloc

import numpy as np
import pytest

from torus_pursuit.ddpg import (
    AgentLearner,
    OuNoise,
    ReplayBuffer,
    Transition,
    TransitionBatch,
    heading_to_vector,
    normalize_action,
    vector_to_heading,
)
from torus_pursuit.errors import BufferNotReadyError
from torus_pursuit.nn import forward


def make_learner(obs_dim=4, hidden=(8, 8), critic_hidden=(8, 8), seed=0, **kw):
    return AgentLearner(
        obs_dim=obs_dim,
        rng=np.random.default_rng(seed),
        actor_hidden=hidden,
        critic_hidden=critic_hidden,
        buffer_capacity=kw.pop("buffer_capacity", 1000),
        **kw,
    )


def random_transition(rng, obs_dim=4, terminal=False, reward=None):
    theta = float(rng.uniform(-math.pi, math.pi))
    return Transition(
        obs=rng.standard_normal(obs_dim),
        action_vector=heading_to_vector(theta),
        reward=float(rng.normal()) if reward is None else reward,
        next_obs=rng.standard_normal(obs_dim),
        terminal=terminal,
    )


class TestActionHead:
    def test_heading_extraction(self):
        assert vector_to_heading(np.array([0.0, 1.0])) == pytest.approx(math.pi / 2)

    def test_normalization_invariance(self):
        a = vector_to_heading(normalize_action(np.array([-3.0, 0.0])))
        b = vector_to_heading(normalize_action(np.array([-0.5, 0.0])))
        assert a == b == pytest.approx(-math.pi)  # normalized heading convention

    def test_vanishing_norm_fallback(self):
        v = normalize_action(np.array([1e-15, -1e-15]))
        assert np.array_equal(v, np.array([1.0, 0.0]))

    def test_act_deterministic(self):
        learner = make_learner()
        obs = np.array([0.1, -0.2, 0.3, 0.4])
        assert learner.act(obs) == learner.act(obs)

    def test_transition_rejects_non_unit_action(self):
        with pytest.raises(ValueError):
            Transition(np.zeros(4), np.array([0.5, 0.0]), 0.0, np.zeros(4), False)

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
        obs = np.array([0.5, 0.5, -0.5, 0.2])
        rng = np.random.default_rng(3)
        assert learner.act_explore(obs, rng) == learner.act(obs)

    def test_noise_long_run_mean_near_zero(self):
        noise = OuNoise(theta=0.15, sigma=0.2)
        rng = np.random.default_rng(11)
        samples = np.array([noise.sample(rng) for _ in range(100_000)])
        # stationary variance sigma^2/(theta*(2-theta)); mean-of-AR1 standard error
        var_x = 0.2**2 / (0.15 * (2 - 0.15))
        rho = 1 - 0.15
        se = math.sqrt(var_x * (1 + rho) / (1 - rho) / len(samples))
        assert np.all(np.abs(samples.mean(axis=0)) < 3 * se)

    def test_noise_reset(self):
        noise = OuNoise()
        noise.sample(np.random.default_rng(0))
        noise.reset()
        assert np.array_equal(noise.state, np.zeros(2))

    def test_same_seed_same_action_sequence(self):
        learner = make_learner()
        obs = np.array([0.1, 0.2, 0.3, 0.4])

        def sequence(seed):
            learner.noise.reset()
            rng = np.random.default_rng(seed)
            return [learner.act_explore(obs, rng) for _ in range(20)]

        assert sequence(5) == sequence(5)
        assert sequence(5) != sequence(6)


class TestReplayBuffer:
    def test_fifo_eviction(self):
        buf = ReplayBuffer(capacity=3, obs_dim=1)
        for r in range(4):
            buf.push(Transition(np.array([float(r)]), np.array([1.0, 0.0]),
                                float(r), np.array([0.0]), False))
        assert len(buf) == 3
        stored = sorted(buf._rewards[:3].tolist())
        assert stored == [1.0, 2.0, 3.0]  # reward 0 (oldest) evicted

    def test_sample_deterministic_per_seed(self):
        rng = np.random.default_rng(13)
        buf = ReplayBuffer(capacity=50, obs_dim=2)
        for _ in range(50):
            buf.push(random_transition(rng, obs_dim=2))
        b1 = buf.sample(8, np.random.default_rng(9))
        b2 = buf.sample(8, np.random.default_rng(9))
        assert np.array_equal(b1.obs, b2.obs)
        assert np.array_equal(b1.rewards, b2.rewards)

    def test_underfilled_not_ready(self):
        buf = ReplayBuffer(capacity=10, obs_dim=2)
        buf.push(random_transition(np.random.default_rng(0), obs_dim=2))
        with pytest.raises(BufferNotReadyError):
            buf.sample(2, np.random.default_rng(0))

    def test_sampling_uniformity(self):
        rng = np.random.default_rng(17)
        buf = ReplayBuffer(capacity=10, obs_dim=1)
        for r in range(10):
            buf.push(Transition(np.array([0.0]), np.array([1.0, 0.0]),
                                float(r), np.array([0.0]), False))
        sample_rng = np.random.default_rng(19)
        draws = np.concatenate(
            [buf.sample(10, sample_rng).rewards for _ in range(10_000)]
        )
        counts = np.bincount(draws.astype(int), minlength=10)
        expected = 10_000
        se = math.sqrt(100_000 * 0.1 * 0.9)
        assert np.all(np.abs(counts - expected) < 3 * se)


class TestCriticUpdate:
    def test_terminal_masks_bootstrap(self):
        learner = make_learner(gamma=0.99)
        rng = np.random.default_rng(23)
        batch = TransitionBatch(
            obs=rng.standard_normal((4, 4)),
            actions=np.tile([1.0, 0.0], (4, 1)),
            rewards=np.array([1.0, -1.0, 0.5, 2.0]),
            next_obs=rng.standard_normal((4, 4)),
            terminals=np.ones(4),
        )
        # with all-terminal transitions the target is exactly r; loss should be
        # mean (Q - r)^2 computed before any update
        q, _ = forward(learner.critic, np.hstack([batch.obs, batch.actions]))
        expected = float(np.mean((q.ravel() - batch.rewards) ** 2))
        assert learner.critic_update(batch) == pytest.approx(expected, abs=1e-12)

    def test_gamma_zero_fixed_point(self):
        learner = make_learner(gamma=0.0)
        rng = np.random.default_rng(29)
        obs = rng.standard_normal((8, 4))
        actions = np.tile([0.0, 1.0], (8, 1))
        # train the critic to predict r exactly, then the loss must be ~0
        batch = TransitionBatch(obs, actions, np.zeros(8), obs.copy(), np.zeros(8))
        for w in learner.critic.weights:
            w[...] = 0.0
        for b in learner.critic.biases:
            b[...] = 0.0
        assert learner.critic_update(batch) == pytest.approx(0.0, abs=1e-15)

    def test_hand_built_single_transition_loss(self):
        # tiny fixed nets: loss = (Q(s,a) - (r + gamma * Qt(s', mu_t(s'))))^2
        learner = make_learner(obs_dim=2, hidden=(3,), critic_hidden=(3,), gamma=0.9)
        batch = TransitionBatch(
            obs=np.array([[0.2, -0.1]]),
            actions=np.array([[1.0, 0.0]]),
            rewards=np.array([0.7]),
            next_obs=np.array([[0.05, 0.3]]),
            terminals=np.zeros(1),
        )
        raw_next, _ = forward(learner.actor_target, batch.next_obs[0])
        a_next = raw_next / np.linalg.norm(raw_next)
        q_next, _ = forward(learner.critic_target, np.concatenate([batch.next_obs[0], a_next]))
        y = 0.7 + 0.9 * float(q_next[0])
        q, _ = forward(learner.critic, np.concatenate([batch.obs[0], batch.actions[0]]))
        expected = (float(q[0]) - y) ** 2
        assert learner.critic_update(batch) == pytest.approx(expected, abs=1e-10)


class TestActorUpdate:
    def test_returns_pre_update_mean_q(self):
        learner = make_learner()
        rng = np.random.default_rng(31)
        batch = TransitionBatch(
            obs=rng.standard_normal((6, 4)),
            actions=np.tile([1.0, 0.0], (6, 1)),
            rewards=np.zeros(6),
            next_obs=rng.standard_normal((6, 4)),
            terminals=np.zeros(6),
        )
        raw, _ = forward(learner.actor, batch.obs)
        a = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        q, _ = forward(learner.critic, np.hstack([batch.obs, a]))
        assert learner.actor_update(batch) == pytest.approx(float(np.mean(q)), abs=1e-12)

    def test_constant_critic_gives_zero_gradient(self):
        learner = make_learner()
        for w in learner.critic.weights:
            w[...] = 0.0
        for b in learner.critic.biases:
            b[...] = 0.0
        learner.critic.biases[-1][...] = 3.0  # Q == 3 everywhere
        before = [w.copy() for w in learner.actor.weights]
        rng = np.random.default_rng(37)
        batch = TransitionBatch(
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
        rng = np.random.default_rng(41)
        obs = rng.standard_normal((5, 3))

        def objective():
            raw, _ = forward(learner.actor, obs)
            a = raw / np.linalg.norm(raw, axis=1, keepdims=True)
            q, _ = forward(learner.critic, np.hstack([obs, a]))
            return float(np.mean(q))

        from torus_pursuit.nn import backward

        raw, actor_cache = forward(learner.actor, obs)
        norms = np.linalg.norm(raw, axis=1, keepdims=True)
        a = raw / norms
        q, critic_cache = forward(learner.critic, np.hstack([obs, a]))
        _, g_in = backward(learner.critic, critic_cache, np.full((5, 1), 1.0 / 5))
        g_a = g_in[:, 3:]
        g_u = (g_a - np.sum(g_a * a, axis=1, keepdims=True) * a) / norms
        grads, _ = backward(learner.actor, actor_cache, g_u)

        flat = grads
        arrays = learner.actor.weights + learner.actor.biases
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
        batch = TransitionBatch(
            obs=obs,
            actions=np.tile([1.0, 0.0], (8, 1)),
            rewards=np.zeros(8),
            next_obs=obs.copy(),
            terminals=np.zeros(8),
        )
        before = learner.actor_update(batch)
        after = learner.actor_update(batch)
        assert after >= before - 1e-12


class TestTargets:
    def test_tau_one_copies_online(self):
        learner = make_learner(tau=1.0)
        learner.critic.weights[0][0, 0] += 1.0
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


class TestDecentralization:
    def test_learners_share_no_arrays(self):
        rng = np.random.default_rng(53)
        learners = [make_learner(seed=i) for i in range(3)]
        seen: set[int] = set()
        for learner in learners:
            for net in (learner.actor, learner.critic, learner.actor_target,
                        learner.critic_target):
                for arr in net.weights + net.biases:
                    assert id(arr) not in seen
                    seen.add(id(arr))
            for arr in (learner.buffer._obs, learner.buffer._actions,
                        learner.buffer._rewards, learner.buffer._next_obs,
                        learner.buffer._terminals, learner.noise.state):
                assert id(arr) not in seen
                seen.add(id(arr))
        # mutating one learner leaves the others' outputs unchanged
        obs = rng.standard_normal(4)
        before = [lr.act(obs) for lr in learners]
        learners[0].actor.weights[0][...] = 7.0
        assert [lr.act(obs) for lr in learners[1:]] == before[1:]

    def test_off_policy_batches_train_without_error(self):
        # transitions generated by an arbitrary scripted behavior policy
        learner = make_learner(obs_dim=4, buffer_capacity=256)
        rng = np.random.default_rng(59)
        for _ in range(64):
            learner.buffer.push(random_transition(rng))
        batch = learner.buffer.sample(32, rng)
        loss = learner.critic_update(batch)
        q = learner.actor_update(batch)
        assert math.isfinite(loss) and math.isfinite(q)


class TestBanditConvergence:
    def test_mean_reward_improves_on_smooth_bandit(self):
        # one-step bandit: fixed observation, reward = cos(heading - target)
        target = 2.0
        obs = np.array([0.3, -0.7, 0.4, 0.1])
        learner = make_learner(hidden=(32, 32), critic_hidden=(32, 32), seed=3,
                               gamma=0.5, lr_actor=1e-3, lr_critic=1e-3,
                               buffer_capacity=4096, tau=0.01)
        rng = np.random.default_rng(61)

        def reward(theta):
            return math.cos(theta - target)

        for _ in range(1024):
            theta = float(rng.uniform(-math.pi, math.pi))
            learner.buffer.push(
                Transition(obs, heading_to_vector(theta), reward(theta), obs, True)
            )
        before = reward(learner.act(obs))
        for _ in range(2000):
            batch = learner.buffer.sample(64, rng)
            learner.critic_update(batch)
            learner.actor_update(batch)
            learner.soft_update_targets()
        after = reward(learner.act(obs))
        assert after > before
        assert after > 0.9  # ends close to the optimum


def filled_learner(seed, obs_dim, hidden, critic_hidden, transitions, **kw):
    learner = make_learner(obs_dim, hidden, critic_hidden, seed=seed,
                           buffer_capacity=transitions, **kw)
    rng = np.random.default_rng(seed + 100)
    for k in range(transitions):
        learner.buffer.push(random_transition(rng, obs_dim, terminal=k % 7 == 0))
    return learner


def update(learner, critic_batch, actor_batch):
    learner.critic_update(critic_batch)
    learner.actor_update(actor_batch)
    learner.soft_update_targets()


class TestScratch:
    def test_update_allocates_nothing_large(self):
        # paper shape: obs 8, actor 128^2, critic 128^3, batch 512
        learner = filled_learner(0, 8, (128, 128), (128, 128, 128), 1024)
        rng = np.random.default_rng(1)
        batches = (learner.buffer.sample(512, rng), learner.buffer.sample(512, rng))
        for _ in range(2):
            update(learner, *batches)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            update(learner, *batches)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, f"transient peak {peak} bytes"

    def test_shared_scratch_leaks_nothing_between_agents(self):
        def pair():
            return [filled_learner(seed, 5, (12, 12), (12, 12, 12), 64, tau=0.05)
                    for seed in (0, 1)]

        rng = np.random.default_rng(2)
        batches = [[(a.buffer.sample(16, rng), a.buffer.sample(16, rng)) for a in pair()]
                   for _ in range(4)]
        team, lone = pair()[:2], pair()[0]
        obs = np.linspace(-1.0, 1.0, 5)
        for step in batches:
            for agent, b in zip(team, step):
                update(agent, *b)
                agent.act(obs)
            update(lone, *step[0])
        for net in ("actor", "critic", "actor_target", "critic_target"):
            assert np.array_equal(getattr(team[0], net).flat, getattr(lone, net).flat)
        for opt in ("adam_actor", "adam_critic"):
            assert np.array_equal(getattr(team[0], opt).m, getattr(lone, opt).m)
            assert np.array_equal(getattr(team[0], opt).v, getattr(lone, opt).v)
        assert not np.array_equal(team[0].actor.flat, team[1].actor.flat)
