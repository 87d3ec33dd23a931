"""Config schema, checkpoint round-trips, and the trajectory CSV format."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from torus_pursuit.checkpoint import load_checkpoint, save_checkpoint
from torus_pursuit.config import (
    ExperimentConfig,
    config_from_dict,
    load_config,
    save_config,
)
from torus_pursuit.ddpg import TeamLearner, heading_to_vector
from torus_pursuit.errors import (
    ConfigError,
    DigestMismatchError,
    SchemaVersionError,
    TrajectoryParseError,
)
from torus_pursuit.trajectory import (
    TRAJECTORY_HEADER,
    TrajectoryWriter,
    read_trajectories,
)


class TestConfigDefaults:
    def test_reference_hyperparameters(self):
        cfg = ExperimentConfig()
        assert cfg.ddpg.lr_actor == 1e-4
        assert cfg.ddpg.lr_critic == 1e-3
        assert cfg.ddpg.clip_norm == 0.5
        assert cfg.ddpg.tau == 0.001
        assert cfg.ddpg.buffer_capacity == 500_000
        assert cfg.ddpg.batch_size == 512
        assert cfg.ddpg.gamma == 0.99
        assert cfg.ddpg.actor_hidden == (128, 128)
        assert cfg.ddpg.critic_hidden == (128, 128, 128)
        assert cfg.curriculum.warmup_epochs == 1000
        assert cfg.env.episode_length == 500
        assert cfg.env.n == 3

    def test_empty_dict_gives_defaults(self):
        assert config_from_dict({}) == ExperimentConfig()


class TestConfigValidation:
    def test_unknown_keys_rejected_with_path(self):
        with pytest.raises(ConfigError, match=r"env\.bogus"):
            config_from_dict({"env": {"bogus": 1}})
        with pytest.raises(ConfigError, match=r"config\.extra"):
            config_from_dict({"extra": {}})
        with pytest.raises(ConfigError, match=r"curriculum\.sessions\[0\]\.nope"):
            config_from_dict(
                {"curriculum": {"sessions": [
                    {"v0": 1.0, "v_target": 1.0, "v_decay": 1, "epochs": 1, "nope": 2}
                ]}}
            )

    def test_bad_values_carry_field_path(self):
        with pytest.raises(ConfigError, match="env"):
            config_from_dict({"env": {"capture_radius": 0.9}})
        with pytest.raises(ConfigError, match=r"run\.strategy"):
            config_from_dict({"run": {"strategy": "teleport"}})
        with pytest.raises(ConfigError, match=r"ddpg\.batch_size"):
            config_from_dict({"ddpg": {"batch_size": "large"}})

    def test_schema_version_checked(self):
        with pytest.raises(ConfigError, match="schema_version"):
            config_from_dict({"schema_version": 99})

    def test_session_chaining_validated(self):
        with pytest.raises(ConfigError, match="chain"):
            config_from_dict(
                {"curriculum": {"sessions": [
                    {"v0": 1.2, "v_target": 1.1, "v_decay": 5, "epochs": 5},
                    {"v0": 0.9, "v_target": 0.8, "v_decay": 5, "epochs": 5},
                ]}}
            )

    def test_session_ratio_beyond_spawn_separation_rejected(self):
        # capture_radius 0.2 + evader_speed 0.05 * (1 + 5.1) reaches 0.5
        with pytest.raises(ConfigError, match=r"curriculum\.sessions\[0\]\.v0.*capture_radius"):
            config_from_dict(
                {"env": {"capture_radius": 0.2},
                 "curriculum": {"sessions": [
                     {"v0": 5.1, "v_target": 1.0, "v_decay": 5, "epochs": 5},
                 ]}}
            )

    def test_session_ratio_beyond_spawn_draw_bound_rejected(self):
        # n=8 at capture_radius 0.3: ratio 1.0 needs about 266 expected spawn
        # draws, ratio 2.5 (separation 0.475) about 19k
        with pytest.raises(ConfigError, match=r"curriculum\.sessions\[0\]\.v0: .*n=8 .*expected draws"):
            config_from_dict(
                {"env": {"n": 8, "capture_radius": 0.3},
                 "curriculum": {"sessions": [
                     {"v0": 2.5, "v_target": 1.0, "v_decay": 5, "epochs": 5},
                 ]}}
            )

    def test_removed_k_att_is_unknown(self):
        with pytest.raises(ConfigError, match=r"run\.k_att: unknown key"):
            config_from_dict({"run": {"k_att": 1.5}})

    def test_pincer_grid_bound(self):
        # (2k+1)^(2n) cells: 9^7 at n=7, k=1 is the largest enumerable grid
        config_from_dict({"env": {"n": 7}, "run": {"strategy": "pincer"}})
        config_from_dict({"env": {"n": 8}, "run": {"strategy": "greedy"}})
        with pytest.raises(ConfigError, match=r"run\.pincer_k: .*n=8 .*k=1 .*43046721 cells"):
            config_from_dict({"env": {"n": 8}, "run": {"strategy": "pincer"}})
        with pytest.raises(ConfigError, match=r"run\.pincer_k: .*n=4 .*k=3"):
            config_from_dict({"env": {"n": 4}, "run": {"strategy": "pincer", "pincer_k": 3}})

    def test_round_trip_file(self, tmp_path):
        cfg = config_from_dict(
            {"env": {"n": 2, "episode_length": 100},
             "ddpg": {"batch_size": 32, "buffer_capacity": 1000,
                      "actor_hidden": [16, 16], "critic_hidden": [16, 16]}}
        )
        path = tmp_path / "config.json"
        save_config(cfg, path)
        loaded = load_config(path)
        assert loaded == cfg
        assert loaded.digest() == cfg.digest()

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    def test_digest_sensitive_to_values(self):
        a = ExperimentConfig()
        b = config_from_dict({"env": {"n": 2}})
        assert a.digest() != b.digest()


class TestCheckpointRoundTrip:
    def make_learner(self, seed=0):
        learner = TeamLearner(
            1,
            obs_dim=4,
            rng=np.random.default_rng(seed),
            actor_hidden=(8,),
            critic_hidden=(8,),
            buffer_capacity=64,
        )
        rng = np.random.default_rng(seed + 1)
        for _ in range(10):
            theta = float(rng.uniform(-math.pi, math.pi))
            learner.buffer.push(rng.standard_normal((1, 4)), heading_to_vector(theta)[None],
                                [float(rng.normal())], rng.standard_normal((1, 4)), False)
        return learner

    def test_bit_exact_round_trip(self, tmp_path):
        cfg = ExperimentConfig()
        learner = self.make_learner()
        rng_states = {"env": np.random.default_rng(3).bit_generator.state,
                      "explore": [], "sample": []}
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, cfg, learner, 2, 5, 105, rng_states)
        got, session, epoch, global_epoch, states = load_checkpoint(path, cfg)
        assert (session, epoch, global_epoch) == (2, 5, 105)
        assert states == rng_states
        for a, b in zip(learner.actor.weights, got.actor.weights):
            assert np.array_equal(a, b)
        for a, b in zip(learner.critic_target.biases, got.critic_target.biases):
            assert np.array_equal(a, b)
        assert np.array_equal(learner.buffer._obs[0, :10], got.buffer._obs[0, :10])
        assert len(got.buffer) == len(learner.buffer)
        assert got.adam_critic.step == learner.adam_critic.step
        # identical behavior after reload
        obs = np.random.default_rng(7).standard_normal((1, 4))
        assert learner.act(obs) == got.act(obs)

    def test_digest_mismatch_rejected(self, tmp_path):
        cfg = ExperimentConfig()
        other = config_from_dict({"env": {"n": 2}})
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, cfg, self.make_learner(), 0, 0, 0, {"env": None})
        with pytest.raises(DigestMismatchError):
            load_checkpoint(path, other)

    def test_unknown_schema_rejected(self, tmp_path):
        cfg = ExperimentConfig()
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, cfg, self.make_learner(), 0, 0, 0, {"env": None})
        doc = json.loads(path.read_text())
        doc["schema_version"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaVersionError):
            load_checkpoint(path, cfg)

    def test_floats_survive_decimal_round_trip(self, tmp_path):
        cfg = ExperimentConfig()
        learner = self.make_learner()
        learner.actor.weights[0][0, 0, 0] = 0.1 + 0.2  # not exactly representable as text
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, cfg, learner, 0, 0, 0, {"env": None})
        loaded, *_ = load_checkpoint(path, cfg)
        assert loaded.actor.weights[0][0, 0, 0] == learner.actor.weights[0][0, 0, 0]


class TestTrajectoryCsv:
    def write_episode(self, path, episodes=2, steps=3, n=2, captured_last=True):
        # evader at (0.5, 0.5) heading 0.25; pursuer i at (0.1 (i+1), 0.2) heading 0.5 (i+1)
        agents = [(0.1 * (i + 1), 0.2, 0.5 * (i + 1)) for i in range(n)] + [(0.5, 0.5, 0.25)]
        poses = np.tile(np.array(agents), (steps, 1, 1))
        rewards = np.full(steps, -0.1)
        if captured_last:
            rewards[-1] = 50.0
        with TrajectoryWriter(path) as w:
            for ep in range(episodes):
                w.write_episode(ep, 0.9, poses, rewards, captured_last)

    def test_header_and_schema_line(self, tmp_path):
        path = tmp_path / "log.csv"
        self.write_episode(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# schema=pursuit-trajectory-v1"
        assert lines[1] == TRAJECTORY_HEADER
        assert lines[2].split(",")[2] == "e"  # evader row leads each step

    def test_round_trip(self, tmp_path):
        path = tmp_path / "log.csv"
        self.write_episode(path, episodes=2, steps=4, n=3)
        traces = read_trajectories(path)
        assert len(traces) == 2
        t = traces[0]
        assert t.n_pursuers == 3
        assert t.steps == 4
        assert t.captured
        assert t.ratio == pytest.approx(0.9)
        assert t.actions[0, 1] == pytest.approx(1.0)
        assert t.rewards[-1] == pytest.approx(50.0)

    def test_nine_significant_digits(self, tmp_path):
        path = tmp_path / "log.csv"
        with TrajectoryWriter(path) as w:
            w.write_episode(0, 1.0 / 3.0, np.array([[(0.25, 0.5, math.pi), (1.0 / 7.0, 0.5, 0.1)]]),
                            np.array([-0.1]), False)
        rows = path.read_text().splitlines()[2:]
        assert rows == [
            "0,1,e,0.142857143,0.5,0.1,0.1,0,0,0.333333333",
            "0,1,p0,0.25,0.5,3.14159265,3.14159265,-0.1,0,0.333333333",
        ]

    def test_run_of_steps(self, tmp_path):
        # the last steps of an episode, written on their own
        path = tmp_path / "log.csv"
        poses = np.array([[(0.25, 0.5, 0.5), (0.75, 0.5, -0.5)]] * 2)
        with TrajectoryWriter(path) as w:
            w.write_episode(4, 0.9, poses, np.array([-0.1, 50.0]), True, first_step=7)
        assert path.read_text().splitlines()[2:] == [
            "4,7,e,0.75,0.5,-0.5,-0.5,0,0,0.9",
            "4,7,p0,0.25,0.5,0.5,0.5,-0.1,0,0.9",
            "4,8,e,0.75,0.5,-0.5,-0.5,0,1,0.9",
            "4,8,p0,0.25,0.5,0.5,0.5,50,1,0.9",
        ]

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "log.csv"
        self.write_episode(path)
        lines = path.read_text().splitlines()
        lines[4] = "0,2,e,bad,0.5,0.1,0.1,0,0,0.9"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TrajectoryParseError, match="line 5"):
            read_trajectories(path)

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "log.csv"
        self.write_episode(path)
        with open(path, "a") as fh:
            fh.write("1,2,3\n")
        with pytest.raises(TrajectoryParseError, match="expected 10 fields"):
            read_trajectories(path)

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "log.csv"
        self.write_episode(path)
        text = path.read_text().replace("trajectory-v1", "trajectory-v9")
        path.write_text(text)
        with pytest.raises(SchemaVersionError):
            read_trajectories(path)

    def test_missing_pursuer_row_detected(self, tmp_path):
        path = tmp_path / "log.csv"
        self.write_episode(path, episodes=1, steps=2, n=2)
        lines = path.read_text().splitlines()
        dropped = [l for l in lines if not l.startswith("0,2,p1")]
        path.write_text("\n".join(dropped) + "\n")
        with pytest.raises(TrajectoryParseError):
            read_trajectories(path)
