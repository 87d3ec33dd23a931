"""Config schema, checkpoint round-trips, and the trajectory CSV format."""

import json
import math
import re
import warnings
from dataclasses import fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalar_reference import heading_to_vector
from torus_pursuit.checkpoint import load_checkpoint, save_checkpoint
from torus_pursuit.config import (
    STRATEGIES,
    ExperimentConfig,
    config_from_dict,
    load_config,
    save_config,
)
from torus_pursuit.curriculum import SessionSpec
from torus_pursuit.ddpg import make_team
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

V1_HEADER = "episode,step,agent,x,y,heading,action,reward,captured,ratio"
DATA = Path(__file__).parent / "data"

# a session entry's required fields; session fields are checked inside a
# one-session plan built from these values
SESSION = {"v0": 1.0, "v_target": 0.8, "v_decay": 10, "epochs": 10}
SESSION_PATH = "curriculum.sessions[0]"


def schema_fields():
    """(path, field, annotation, default) of every config field, read from the dataclasses."""
    defaults = ExperimentConfig()
    found = []
    for section in fields(ExperimentConfig):
        value = getattr(defaults, section.name)
        kinds = get_type_hints(type(value))
        found += [(section.name, f.name, kinds[f.name], getattr(value, f.name))
                  for f in fields(value) if f.name != "sessions"]
    kinds = get_type_hints(SessionSpec)
    found += [(SESSION_PATH, f.name, kinds[f.name], SESSION.get(f.name, f.default))
              for f in fields(SessionSpec)]
    return found


def field_doc(path, name, value):
    """A config document that sets one field to `value`."""
    if path == SESSION_PATH:
        return {"curriculum": {"sessions": [{**SESSION, name: value}]}}
    return {path: {name: value}}


def field_value(config, path, name):
    section = config.curriculum.sessions[0] if path == SESSION_PATH else getattr(config, path)
    return getattr(section, name)


# values of each annotation's wrong JSON type (or, for layer lists, a wrong entry)
WRONG_VALUES = {
    int: [1.5, True, "1", None],
    float: [True, "0.5", None, [0.5]],
    bool: [1, "true", None],
    str: [1, None, ["x"]],
    tuple[int, ...]: ["8", 8, [8.0], [True], [0], [{}]],
}
# a valid value other than the default, where the generic rule below gives none
NON_DEFAULT = {("run", "strategy"): "greedy"}


def non_default(path, name, kind, default):
    if (path, name) in NON_DEFAULT:
        return NON_DEFAULT[path, name]
    if kind is bool:
        return not default
    if kind is int:
        return default + 1
    if kind is float:
        return default / 2
    if kind is str:
        return default + "-other"
    return (*default, 7)


SCHEMA_FIELDS = schema_fields()
FIELD_IDS = [f"{path}.{name}" for path, name, _, _ in SCHEMA_FIELDS]


# One field replaced by each of these: integers at and beyond int64 and the
# float range, special floats, and every other JSON type
FUZZ_VALUES = [2**63 - 1, 2**63, -2**63, 2**64, 10**400, -10**400, 10**30, 1e308, math.nan,
               math.inf, -math.inf, 5e-324, -0.0, 0, True, False, "x", "", None, [], {}, [2**63],
               [10**400]]


@st.composite
def one_field_replaced(draw):
    """The default config written out in full, playing a drawn strategy, with
    one field of a section or of one of its sessions replaced."""
    doc = json.loads(json.dumps(ExperimentConfig().to_dict()))
    doc["run"]["strategy"] = draw(st.sampled_from(STRATEGIES), label="strategy")
    path, name = draw(st.sampled_from(
        [(path, name) for path, name, _, _ in SCHEMA_FIELDS] + [("curriculum", "sessions")]),
        label="field")
    section = doc[path] if path != SESSION_PATH else draw(
        st.sampled_from(doc["curriculum"]["sessions"]), label="session")
    section[name] = draw(st.sampled_from(FUZZ_VALUES), label="value")
    return doc


@settings(max_examples=400, deadline=None)
@given(one_field_replaced())
def test_config_with_one_field_replaced_loads_or_is_refused(doc):
    # parsing only: a config that loads is never trained, so nothing large is
    # allocated whatever the field asks for
    try:
        config_from_dict(doc)
    except ConfigError:
        pass


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
        # a JSON integer beyond the float range cannot become a float field's value
        for section, name in (("ddpg", "gamma"), ("env", "evader_speed")):
            message = rf"{section}\.{name}: integer beyond the float range"
            with pytest.raises(ConfigError, match=message):
                config_from_dict(json.loads(f'{{"{section}": {{"{name}": 1{"0" * 400}}}}}'))

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

    def test_pursuer_count_beyond_the_float_range_of_draws_rejected(self):
        # (1 - pi s^2)^-n overflows a float at n = 100,000, which used to
        # escape config loading as an OverflowError
        with pytest.raises(ConfigError, match=r"^env: a spawn of n=100000 pursuers .* needs inf "
                                              "expected draws, more than 1000; lower n"):
            config_from_dict({"env": {"n": 100_000}})

    @pytest.mark.parametrize("n", [2**63, 10**400], ids=["2^63", "10^400"])
    def test_pursuer_count_beyond_int64_rejected(self, n):
        # 10^400 used to end in an OverflowError at the spawn-draw bound
        with pytest.raises(ConfigError, match=r"^env: n must be below 2\^63$"):
            config_from_dict({"env": {"n": n}})

    def test_removed_k_att_is_unknown(self):
        with pytest.raises(ConfigError, match=r"run\.k_att: unknown key"):
            config_from_dict({"run": {"k_att": 1.5}})

    def test_removed_env_seed_is_unknown(self):
        # nothing read it; run.seed seeds every stream
        with pytest.raises(ConfigError, match=r"env\.seed: unknown key"):
            config_from_dict({"env": {"seed": 0}})
        assert "seed" not in ExperimentConfig().to_dict()["env"]

    def test_pincer_grid_bound(self):
        # (2k+1)^(2n) cells: 9^7 at n=7, k=1 is the largest enumerable grid
        config_from_dict({"env": {"n": 7}, "run": {"strategy": "pincer"}})
        config_from_dict({"env": {"n": 8}, "run": {"strategy": "greedy"}})
        with pytest.raises(ConfigError, match=r"run\.pincer_k: .*n=8 .*k=1 .*43046721 cells"):
            config_from_dict({"env": {"n": 8}, "run": {"strategy": "pincer"}})
        with pytest.raises(ConfigError, match=r"run\.pincer_k: .*n=4 .*k=3"):
            config_from_dict({"env": {"n": 4}, "run": {"strategy": "pincer", "pincer_k": 3}})

    def test_pincer_grid_of_a_huge_team_is_bounded_without_building_it(self):
        # 3^8000000 has 3.8 million digits: building it took seconds, and
        # printing it hit Python's limit on integer string conversion
        with pytest.raises(ConfigError, match=r"^run\.pincer_k: pincer grid for n=4000000 "
                                              r"pursuers at k=1 has 3\^8000000 cells, more "
                                              r"than the 9\^7 = 4782969 \(n=7, k=1\)"):
            config_from_dict({"env": {"n": 4_000_000, "capture_radius": 1e-7,
                                      "evader_speed": 1e-7}, "run": {"strategy": "pincer"}})

    @pytest.mark.parametrize("doc,message", [
        ({"ddpg": {"tau": 2.0}}, r"ddpg\.tau: must be in \(0, 1\]"),
        ({"ddpg": {"theta_ou": math.nan}}, r"ddpg\.theta_ou: must be in \[0, 2\]"),
        ({"ddpg": {"theta_ou": math.inf}}, r"ddpg\.theta_ou: must be in \[0, 2\]"),
        ({"ddpg": {"sigma_ou": math.nan}}, r"ddpg\.sigma_ou: must be finite and >= 0"),
        ({"ddpg": {"sigma_ou": math.inf}}, r"ddpg\.sigma_ou: must be finite and >= 0"),
        ({"run": {"seed": -1}}, r"run\.seed: must be >= 0"),
        ({"ddpg": {"lr_actor": math.inf}}, r"ddpg\.lr_actor: must be finite and > 0"),
        ({"ddpg": {"lr_critic": math.inf}}, r"ddpg\.lr_critic: must be finite and > 0"),
    ], ids=["tau 2", "theta_ou nan", "theta_ou inf", "sigma_ou nan", "sigma_ou inf", "seed -1",
            "lr_actor inf", "lr_critic inf"])
    def test_values_that_crash_later_refused_at_load(self, doc, message):
        # each used to load and fail only once training ran
        with pytest.raises(ConfigError, match=message):
            config_from_dict(doc)

    def test_session_v_decay_below_one_refused_at_load(self):
        # it used to load and fail as a bare ValueError when training began
        with pytest.raises(ConfigError, match=r"curriculum\.sessions\[0\]: v_decay must be >= 1"):
            config_from_dict({"curriculum": {"sessions": [{**SESSION, "v_decay": 0}]}})

    def test_warmup_on_a_later_session_refused_at_load(self):
        # only the first session runs the warm-up, so this flag used to load unread
        first = {"v0": 1.2, "v_target": 1.0, "v_decay": 5, "epochs": 5,
                 "use_scripted_warmup": True}
        later = {"v0": 1.0, "v_target": 0.8, "v_decay": 5, "epochs": 5}
        with pytest.raises(ConfigError, match=r"^curriculum: sessions\[1\]\.use_scripted_warmup: "
                                              "the scripted warm-up runs in the first session"):
            config_from_dict({"curriculum": {"sessions": [
                first, {**later, "use_scripted_warmup": True}]}})
        plan = config_from_dict({"curriculum": {"sessions": [first, later]}}).curriculum
        assert [s.use_scripted_warmup for s in plan.sessions] == [True, False]

    def test_bounds_are_inclusive_where_documented(self):
        cfg = config_from_dict({"ddpg": {"tau": 1, "theta_ou": 2, "sigma_ou": 0}})
        assert (cfg.ddpg.tau, cfg.ddpg.theta_ou, cfg.ddpg.sigma_ou) == (1.0, 2.0, 0.0)
        # a JSON int reads as the float it names, so it digests as that float
        as_floats = config_from_dict({"ddpg": {"tau": 1.0, "theta_ou": 2.0, "sigma_ou": 0.0}})
        assert cfg.digest() == as_floats.digest()
        assert config_from_dict({"ddpg": {"theta_ou": 0.0}}).ddpg.theta_ou == 0.0

    @pytest.mark.parametrize("path,name,kind,default", SCHEMA_FIELDS, ids=FIELD_IDS)
    def test_field_of_wrong_type_refused(self, path, name, kind, default):
        for value in WRONG_VALUES[kind]:
            with pytest.raises(ConfigError, match=re.escape(f"{path}.{name}: expected")):
                config_from_dict(field_doc(path, name, value))

    @pytest.mark.parametrize("path,name,kind,default", SCHEMA_FIELDS, ids=FIELD_IDS)
    def test_field_round_trips_through_file(self, tmp_path, path, name, kind, default):
        value = non_default(path, name, kind, default)
        assert value != default
        cfg = config_from_dict(json.loads(json.dumps(field_doc(path, name, value))))
        assert field_value(cfg, path, name) == value
        save_config(cfg, tmp_path / "config.json")
        loaded = load_config(tmp_path / "config.json")
        assert loaded == cfg
        assert field_value(loaded, path, name) == value

    def test_session_field_without_default_required(self):
        for name in SESSION:
            entry = {k: v for k, v in SESSION.items() if k != name}
            with pytest.raises(ConfigError, match=re.escape(f"{SESSION_PATH}.{name}: required")):
                config_from_dict({"curriculum": {"sessions": [entry]}})

    @pytest.mark.parametrize("doc,path", [
        ({"env": 3}, "env"), ({"curriculum": []}, "curriculum"),
        ({"curriculum": {"sessions": [5]}}, SESSION_PATH),
    ])
    def test_section_not_an_object_refused(self, doc, path):
        with pytest.raises(ConfigError, match=re.escape(f"{path}: expected a JSON object")):
            config_from_dict(doc)

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
        # past Python's integer digit limit the parser raises a plain ValueError
        path.write_text('{"ddpg": {"gamma": 1' + "0" * 5000 + "}}")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    def test_digest_sensitive_to_values(self):
        a = ExperimentConfig()
        b = config_from_dict({"env": {"n": 2}})
        assert a.digest() != b.digest()


class TestCheckpointRoundTrip:
    # a lone pursuer, which observes 4 inputs: its heading and its offset to the evader
    CONFIG = config_from_dict({"env": {"n": 1}, "ddpg": {
        "actor_hidden": [8], "critic_hidden": [8], "buffer_capacity": 64, "batch_size": 64}})

    def make_learner(self, seed=0):
        learner = make_team(self.CONFIG, np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 1)
        for _ in range(10):
            theta = float(rng.uniform(-math.pi, math.pi))
            obs, reward, next_obs = (rng.standard_normal((1, 4)), float(rng.normal()),
                                     rng.standard_normal((1, 4)))
            next_obs[0, :2] = heading_to_vector(theta)  # the heading just taken
            learner.buffer.push(reward, next_obs, False, obs=obs)
        return learner

    def test_bit_exact_round_trip(self, tmp_path):
        cfg = self.CONFIG
        learner = self.make_learner()
        rng_states = {"env": np.random.default_rng(3).bit_generator.state,
                      "explore": [], "sample": []}
        path = tmp_path / "ckpt.json"
        # epoch 5 of session 2 of the default plan
        global_epoch = sum(s.epochs for s in cfg.curriculum.sessions[:2]) + 5
        save_checkpoint(path, cfg, learner, global_epoch, rng_states)
        got, *position, states = load_checkpoint(path, cfg)
        assert position == [2, 5, global_epoch]
        assert states == rng_states
        for a, b in zip(learner.actor.weights, got.actor.weights):
            assert np.array_equal(a, b)
        for a, b in zip(learner.critic_target.biases, got.critic_target.biases):
            assert np.array_equal(a, b)
        assert np.array_equal(learner.buffer._obs[0, :10], got.buffer._obs[0, :10])
        assert len(got.buffer) == len(learner.buffer)
        assert got.adam_critic.step == learner.adam_critic.step
        # identical behavior after reload
        obs = np.random.default_rng(7).standard_normal((1, 1, 4))
        assert learner.act(obs).tolist() == got.act(obs).tolist()

    def test_digest_mismatch_rejected(self, tmp_path):
        cfg = self.CONFIG
        other = config_from_dict({"env": {"n": 2}})
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, cfg, self.make_learner(), 0, {"env": None})
        with pytest.raises(DigestMismatchError):
            load_checkpoint(path, other)

    def test_current_and_legacy_digests_load_and_no_other(self, tmp_path):
        # checkpoints written while env held `seed` (always 0 unless set)
        # carry the digest of that blob; they must still load
        default = ExperimentConfig()
        assert default.legacy_digest() == (
            "8baea11ee1a07c0f45aecea66a8ed4ef7c982ff9481c4a04290afc674d51439a"
        )
        assert default.digest() == (
            "fe7cb3cf53d3504f3f0040ac5be75be45904fcfaae7fba39bbf9c637528663e2"
        )
        assert load_config(DATA / "final_snapshot_config.json").digest() == (
            "2a3d391842d94adb5b29245c2aa810fed4913a702ee98d763983da5427b5c8b9"
        )
        cfg = self.CONFIG  # a team this config describes loads under either digest
        assert cfg.digest() != cfg.legacy_digest()
        learner = self.make_learner()
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, cfg, learner, 0, {"env": None})
        doc = json.loads(path.read_text())
        assert doc["config_digest"] == cfg.digest()
        other = config_from_dict({"env": {"n": 2}})
        for digest, ok in (
            (cfg.digest(), True),
            (cfg.legacy_digest(), True),
            (other.digest(), False),
            (other.legacy_digest(), False),
        ):
            doc["config_digest"] = digest
            path.write_text(json.dumps(doc))
            if ok:
                got, *_ = load_checkpoint(path, cfg)
                assert np.array_equal(got.actor.flat, learner.actor.flat)
            else:
                with pytest.raises(DigestMismatchError):
                    load_checkpoint(path, cfg)

    def test_unknown_schema_rejected(self, tmp_path):
        cfg = self.CONFIG
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, cfg, self.make_learner(), 0, {"env": None})
        doc = json.loads(path.read_text())
        doc["schema_version"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaVersionError):
            load_checkpoint(path, cfg)

    def test_floats_survive_decimal_round_trip(self, tmp_path):
        cfg = self.CONFIG
        learner = self.make_learner()
        learner.actor.weights[0][0, 0, 0] = 0.1 + 0.2  # not exactly representable as text
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, cfg, learner, 0, {"env": None})
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
        assert lines[0] == "# schema=pursuit-trajectory-v2"
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
            "0,1,e,0.142857143,0.5,0.1,0,0,0.333333333",
            "0,1,p0,0.25,0.5,3.14159265,-0.1,0,0.333333333",
        ]

    def test_run_of_steps(self, tmp_path):
        # the last steps of an episode, written on their own
        path = tmp_path / "log.csv"
        poses = np.array([[(0.25, 0.5, 0.5), (0.75, 0.5, -0.5)]] * 2)
        with TrajectoryWriter(path) as w:
            w.write_episode(4, 0.9, poses, np.array([-0.1, 50.0]), True, first_step=7)
        assert path.read_text().splitlines()[2:] == [
            "4,7,e,0.75,0.5,-0.5,0,0,0.9",
            "4,7,p0,0.25,0.5,0.5,-0.1,0,0.9",
            "4,8,e,0.75,0.5,-0.5,0,1,0.9",
            "4,8,p0,0.25,0.5,0.5,50,1,0.9",
        ]

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "log.csv"
        self.write_episode(path)
        lines = path.read_text().splitlines()
        lines[4] = "0,2,e,bad,0.5,0.1,0,0,0.9"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TrajectoryParseError, match="line 5"):
            read_trajectories(path)

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "log.csv"
        self.write_episode(path)
        with open(path, "a") as fh:
            fh.write("1,2,3\n")
        with pytest.raises(TrajectoryParseError, match="expected 9 fields"):
            read_trajectories(path)

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "log.csv"
        self.write_episode(path)
        text = path.read_text().replace("trajectory-v2", "trajectory-v9")
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

    def test_duplicate_row_rejected(self, tmp_path):
        # a second row for (episode 0, step 1, p0) used to overwrite the first
        path = tmp_path / "log.csv"
        self.write_episode(path, episodes=1, steps=3, n=2)
        lines = path.read_text().splitlines()
        lines.insert(6, lines[3].replace(",0.2,", ",0.3,"))
        path.write_text("\n".join(lines) + "\n")
        want = r"log\.csv: line 7: episode 0 step 1: second row for agent p0"
        with pytest.raises(TrajectoryParseError, match=want):
            read_trajectories(path)

    def test_missing_step_rejected(self, tmp_path):
        # an episode without its step 2 used to read as a two-step episode
        path = tmp_path / "log.csv"
        self.write_episode(path, episodes=2, steps=3, n=2)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(l for l in lines if not l.startswith("1,2,")) + "\n")
        want = r"log\.csv: line 15: episode 1: expected step 2, found step 3"
        with pytest.raises(TrajectoryParseError, match=want):
            read_trajectories(path)

    def test_rows_in_any_order(self, tmp_path):
        path = tmp_path / "log.csv"
        self.write_episode(path, episodes=3, steps=4, n=2)
        want = read_trajectories(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2] + lines[:1:-1] + [""]) + "\n")
        got = read_trajectories(path)
        assert [t.episode for t in got] == [0, 1, 2]
        for a, b in zip(got, want):
            assert np.array_equal(a.actions, b.actions)
            assert np.array_equal(a.pursuer_xy, b.pursuer_xy)
            assert a.captured == b.captured

    def test_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "named.csv"
        self.write_episode(path)
        lines = path.read_text().splitlines()
        lines[3] = lines[3].replace(",p0,", ",q0,")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TrajectoryParseError) as info:
            read_trajectories(path)
        assert str(info.value) == f"{path}: line 4: bad agent id 'q0'"

    def write_log(self, path, version, edit=None):
        """Two captured 3-step episodes at n=2 in trajectory schema `version`,
        after `edit(lines, column)` changed the body; `column(name)` is a
        field's index and lines[k] is file line k + 1."""
        self.write_episode(path, episodes=2, steps=3, n=2)
        lines = path.read_text().splitlines()
        if version == 1:  # the heading repeated in an action column
            lines[:2] = ["# schema=pursuit-trajectory-v1", V1_HEADER]
            lines[2:] = [",".join(f[:6] + f[5:]) for f in (l.split(",") for l in lines[2:])]
        names = lines[1].split(",")
        if edit is not None:
            edit(lines, names.index)
        path.write_text("\n".join(lines) + "\n")

    @staticmethod
    def set_field(lines, k, column, value):
        fields = lines[k].split(",")
        fields[column] = value
        lines[k] = ",".join(fields)

    @pytest.mark.parametrize("version", [1, 2])
    def test_versions_read_alike(self, tmp_path, version):
        self.write_log(tmp_path / "v2.csv", 2)
        self.write_log(tmp_path / "log.csv", version)
        for a, b in zip(read_trajectories(tmp_path / "log.csv"),
                        read_trajectories(tmp_path / "v2.csv"), strict=True):
            assert (a.episode, a.ratio, a.captured) == (b.episode, b.ratio, b.captured)
            for name in ("actions", "pursuer_xy", "evader_xy", "evader_action", "rewards"):
                assert np.array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.parametrize("schema,header", [
        ("pursuit-trajectory-v2", V1_HEADER), ("pursuit-trajectory-v1", TRAJECTORY_HEADER),
    ])
    def test_header_of_the_other_version_rejected(self, tmp_path, schema, header):
        path = tmp_path / "log.csv"
        path.write_text(f"# schema={schema}\n{header}\n")
        with pytest.raises(TrajectoryParseError, match="line 2: missing header"):
            read_trajectories(path)

    @pytest.mark.parametrize("header", [V1_HEADER, TRAJECTORY_HEADER])
    def test_header_alone_selects_the_version(self, tmp_path, header):
        path = tmp_path / "log.csv"
        self.write_log(path, 1 if header == V1_HEADER else 2)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[1:]) + "\n")
        assert [t.steps for t in read_trajectories(path)] == [3, 3]

    # Rows that used to read silently, each resolved by one row's value.
    # Lines 3-11 hold episode 0 (steps 1-3, rows e, p0, p1), lines 12-20 episode 1.

    @pytest.mark.parametrize("version", [1, 2])
    def test_step_disagreeing_on_capture_rejected(self, tmp_path, version):
        path = tmp_path / "log.csv"
        self.write_log(path, version, lambda lines, col: self.set_field(
            lines, 6, col("captured"), "1"))
        want = r"log\.csv: line 7: episode 0 step 2: captured flag of p0 differs from the evader's"
        with pytest.raises(TrajectoryParseError, match=want):
            read_trajectories(path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_ratio_change_within_episode_rejected(self, tmp_path, version):
        path = tmp_path / "log.csv"
        self.write_log(path, version, lambda lines, col: self.set_field(
            lines, 18, col("ratio"), "0.8"))
        want = r"log\.csv: line 19: episode 1 step 3: ratio of p0 differs from the episode's"
        with pytest.raises(TrajectoryParseError, match=want):
            read_trajectories(path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_pursuer_rewards_disagreeing_rejected(self, tmp_path, version):
        path = tmp_path / "log.csv"
        self.write_log(path, version, lambda lines, col: self.set_field(
            lines, 7, col("reward"), "50"))
        want = r"log\.csv: line 8: episode 0 step 2: reward of p1 differs from p0's"
        with pytest.raises(TrajectoryParseError, match=want):
            read_trajectories(path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_steps_after_capture_rejected(self, tmp_path, version):
        def go_on(lines, col):
            # episode 0's captured step 3, repeated as step 4 and not captured
            for k in (8, 9, 10):
                lines.append(lines[k])
                self.set_field(lines, -1, col("step"), "4")
                self.set_field(lines, -1, col("captured"), "0")

        path = tmp_path / "log.csv"
        self.write_log(path, version, go_on)
        want = r"log\.csv: line 21: episode 0: step 4 follows the capture at step 3"
        with pytest.raises(TrajectoryParseError, match=want):
            read_trajectories(path)

    @pytest.mark.parametrize("steps, k", [(3, 4), (400, 700)],
                             ids=["in the header's read-ahead", "past it"])
    def test_byte_that_is_not_utf8_refused(self, tmp_path, steps, k):
        # it used to escape as a UnicodeDecodeError; the text layer decodes
        # the first lines while the header is read, np.loadtxt the rest
        path = tmp_path / "log.csv"
        self.write_episode(path, episodes=1, steps=steps, n=1)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[k] = lines[k][:-1] + b"\xff\n"
        path.write_bytes(b"".join(lines))
        with pytest.raises(TrajectoryParseError) as info:
            read_trajectories(path)
        assert str(info.value) == f"{path}: line {k + 1}: not UTF-8"

    @pytest.mark.parametrize("column, k, edit, message", [
        (3, 5, lambda lines: TestTrajectoryCsv.set_field(lines, 5, 7, "2"),
         "captured must be 0 or 1, got '2'"),
        (8, 6, lambda lines: lines.insert(6, lines[3].replace(",0.2,", ",0.3,")),
         "episode 0 step 1: second row for agent p0"),
    ], ids=["malformed row", "duplicate row"])
    def test_lines_break_at_newlines_only(self, tmp_path, column, k, edit, message):
        # np.loadtxt reads a form feed after line 4's x or ratio as blank
        # space; the reader used to break the line there and misname lines
        path = tmp_path / "log.csv"
        self.write_episode(path, episodes=1, steps=3, n=1)
        lines = path.read_text().splitlines()
        self.set_field(lines, 3, column, lines[3].split(",")[column] + "\x0c")
        edit(lines)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TrajectoryParseError) as info:
            read_trajectories(path)
        assert str(info.value) == f"{path}: line {k + 1}: {message}"

    @pytest.mark.parametrize("body", ["", "\n\n"])
    def test_empty_body_yields_no_episodes(self, tmp_path, body):
        path = tmp_path / "log.csv"
        with TrajectoryWriter(path):
            pass
        with open(path, "a") as fh:
            fh.write(body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_trajectories(path) == []
