"""Checkpoint layout: save/load identity, byte stability, schema 1, integrity."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torus_pursuit.checkpoint import load_checkpoint, save_checkpoint, sidecar_path
from torus_pursuit.config import ExperimentConfig, config_from_dict
from torus_pursuit.ddpg import TeamLearner, heading_to_vector
from torus_pursuit.errors import CheckpointIntegrityError
from torus_pursuit.training import run_training

NETWORKS = ("actor", "critic", "actor_target", "critic_target")
OPTIMIZERS = ("adam_actor", "adam_critic")
MOMENTS = ("m", "v")
BUFFER_FIELDS = ("_obs", "_actions", "_rewards", "_next_obs", "_terminals")
SCALARS = ("n", "obs_dim", "gamma", "tau", "lr_actor", "lr_critic", "clip_norm")


def make_team(agents, fill, obs_dim, actor_hidden, critic_hidden, capacity, seed):
    """A team whose every array holds distinct values, its rings pushed `fill` times."""
    rng = np.random.default_rng(seed)
    team = TeamLearner(agents, obs_dim, rng, actor_hidden=actor_hidden,
                       critic_hidden=critic_hidden, buffer_capacity=capacity)
    for net in NETWORKS:
        for b in getattr(team, net).biases:
            b[:] = rng.standard_normal(b.shape)
    for opt in OPTIMIZERS:
        state = getattr(team, opt)
        for name in MOMENTS:
            moment = getattr(state, name)
            moment[:] = rng.standard_normal(moment.shape)
        state.step = int(rng.integers(0, 10_000))
    for noise in team.noise:
        noise.state = rng.standard_normal(2)
    for _ in range(fill):
        team.buffer.push(
            rng.standard_normal((agents, obs_dim)),
            np.array([heading_to_vector(t) for t in rng.uniform(-math.pi, math.pi, agents)]),
            rng.normal(size=agents),
            rng.standard_normal((agents, obs_dim)),
            bool(rng.integers(0, 2)),
        )
    return team


def team_arrays(team):
    """Every array of a team's state, by name."""
    out = {f"noise{i}": noise.state for i, noise in enumerate(team.noise)}
    for net in NETWORKS:
        params = getattr(team, net)
        for i, (w, b) in enumerate(zip(params.weights, params.biases)):
            out[f"{net}.w{i}"], out[f"{net}.b{i}"] = w, b
    for opt in OPTIMIZERS:
        for name in MOMENTS:
            out[f"{opt}.{name}"] = getattr(getattr(team, opt), name)
    for name in BUFFER_FIELDS:
        out[name] = getattr(team.buffer, name)
    return out


def assert_same_team(want, got):
    for name in SCALARS:
        assert getattr(got, name) == getattr(want, name), name
    for opt in OPTIMIZERS:
        assert getattr(got, opt).step == getattr(want, opt).step
    for net in NETWORKS:
        assert getattr(got, net).hidden_activation == getattr(want, net).hidden_activation
        assert getattr(got, net).output_activation == getattr(want, net).output_activation
    for noise, want_noise in zip(got.noise, want.noise, strict=True):
        assert (noise.theta, noise.sigma) == (want_noise.theta, want_noise.sigma)
    b, gb = want.buffer, got.buffer
    assert (gb.capacity, gb.obs_dim, gb._next, gb._size) == (b.capacity, b.obs_dim, b._next, b._size)
    want_arrays, got_arrays = team_arrays(want), team_arrays(got)
    assert want_arrays.keys() == got_arrays.keys()
    for name, a in want_arrays.items():
        assert got_arrays[name].dtype == np.float64, name
        assert got_arrays[name].flags.writeable, name
        assert np.array_equal(got_arrays[name], a), name


def inline_as_schema_1(manifest: Path, out: Path) -> None:
    """Rewrites a schema 2 checkpoint as one schema 1 JSON document at `out`."""
    doc = json.loads(manifest.read_text())
    with np.load(manifest.parent / doc.pop("sidecar")["file"]) as arrays:
        def inline(node):
            if isinstance(node, dict) and set(node) == {"key", "offset", "shape"}:
                n = math.prod(node["shape"])
                flat = arrays[node["key"]][node["offset"] : node["offset"] + n]
                return {"shape": node["shape"], "data": flat.tolist()}
            if isinstance(node, dict):
                return {k: inline(v) for k, v in node.items()}
            if isinstance(node, list):
                return [inline(v) for v in node]
            return node

        doc = inline(doc)
    doc["schema_version"] = 1
    out.write_text(json.dumps(doc))


RNG_STATES = {"env": np.random.default_rng(3).bit_generator.state, "explore": [], "sample": []}

layer_sizes = st.lists(st.integers(1, 6), max_size=2).map(tuple)


@settings(max_examples=25, deadline=None)
@given(
    agents=st.integers(1, 3),
    fill=st.integers(0, 40),
    obs_dim=st.integers(1, 5),
    actor_hidden=layer_sizes,
    critic_hidden=layer_sizes,
    capacity=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
)
# a wrapped ring (size == capacity, next == 2), an exactly full one, an empty one
@example(agents=3, fill=12, obs_dim=3, actor_hidden=(4,), critic_hidden=(4, 3),
         capacity=5, seed=0)
@example(agents=2, fill=5, obs_dim=3, actor_hidden=(4,), critic_hidden=(4, 3),
         capacity=5, seed=0)
@example(agents=1, fill=0, obs_dim=3, actor_hidden=(4,), critic_hidden=(4, 3),
         capacity=5, seed=0)
def test_save_load_identity(agents, fill, obs_dim, actor_hidden, critic_hidden, capacity, seed):
    cfg = ExperimentConfig()
    team = make_team(agents, fill, obs_dim, actor_hidden, critic_hidden, capacity, seed)
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp, "a", "ckpt.json"), Path(tmp, "b", "ckpt.json")
        save_checkpoint(a, cfg, team, 1, 2, 3, RNG_STATES)
        save_checkpoint(b, cfg, team, 1, 2, 3, RNG_STATES)
        assert sorted(p.name for p in a.parent.iterdir()) == ["ckpt.json", "ckpt.npz"]
        assert a.read_bytes() == b.read_bytes()
        assert sidecar_path(a).read_bytes() == sidecar_path(b).read_bytes()

        loaded, session, epoch, global_epoch, states = load_checkpoint(a, cfg)
        inline_as_schema_1(a, Path(tmp, "v1.json"))
        from_v1, *_ = load_checkpoint(Path(tmp, "v1.json"), cfg)

    assert (session, epoch, global_epoch, states) == (1, 2, 3, RNG_STATES)
    assert_same_team(team, loaded)
    assert_same_team(team, from_v1)
    obs = np.random.default_rng(seed).standard_normal((agents, obs_dim))
    assert loaded.act(obs) == team.act(obs) == from_v1.act(obs)


def test_wrapped_example_is_a_full_ring():
    team = make_team(3, 12, 3, (4,), (4, 3), 5, 0)
    assert (len(team.buffer), team.buffer._next) == (5, 2)


class TestSidecarIntegrity:
    @pytest.fixture
    def saved(self, tmp_path):
        cfg = ExperimentConfig()
        path = tmp_path / "checkpoint_epoch5.json"
        save_checkpoint(path, cfg, make_team(1, 7, 4, (8,), (8,), 16, 1), 0, 5, 5, RNG_STATES)
        assert sidecar_path(path) == tmp_path / "checkpoint_epoch5.npz"
        return cfg, path, sidecar_path(path)

    def test_manifest_records_sidecar(self, saved):
        _, path, sidecar = saved
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 2
        assert doc["sidecar"]["file"] == sidecar.name
        assert doc["sidecar"]["bytes"] == sidecar.stat().st_size
        assert doc["agents"][0]["actor"]["weights"][0] == {
            "key": "agents.0", "offset": 0, "shape": [8, 4]}
        assert doc["agents"][0]["actor"]["biases"][0] == {
            "key": "agents.0", "offset": 8 * 4 + 2 * 8, "shape": [8]}
        assert doc["agents"][0]["buffer"]["obs"] == {
            "key": "agents.0.buffer.obs", "offset": 0, "shape": [7, 4]}

    def test_missing_sidecar_rejected(self, saved):
        cfg, path, sidecar = saved
        sidecar.unlink()
        with pytest.raises(CheckpointIntegrityError, match="missing") as err:
            load_checkpoint(path, cfg)
        assert path.name in str(err.value) and sidecar.name in str(err.value)

    def test_truncated_sidecar_rejected(self, saved):
        cfg, path, sidecar = saved
        sidecar.write_bytes(sidecar.read_bytes()[:-100])
        with pytest.raises(CheckpointIntegrityError, match="bytes") as err:
            load_checkpoint(path, cfg)
        assert path.name in str(err.value) and sidecar.name in str(err.value)

    def test_altered_sidecar_rejected(self, saved):
        cfg, path, sidecar = saved
        data = bytearray(sidecar.read_bytes())
        data[len(data) // 2] ^= 0xFF
        sidecar.write_bytes(bytes(data))
        with pytest.raises(CheckpointIntegrityError, match="SHA-256") as err:
            load_checkpoint(path, cfg)
        assert path.name in str(err.value) and sidecar.name in str(err.value)


class TestTeamAgreement:
    """A team updates in lockstep, so a manifest whose agents disagree is refused."""

    @pytest.fixture
    def saved(self, tmp_path):
        cfg = ExperimentConfig()
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, cfg, make_team(2, 7, 4, (8,), (8,), 16, 1), 0, 5, 5, RNG_STATES)
        return cfg, path, json.loads(path.read_text())

    @pytest.mark.parametrize("field, value", [
        ("buffer.size", 6), ("buffer.next", 3), ("buffer.capacity", 17),
        ("adam_critic.step", 0), ("lr_actor", 0.5),
    ])
    def test_one_agent_edited(self, saved, field, value):
        cfg, path, doc = saved
        *parents, name = field.split(".")
        node = doc["agents"][1]
        for key in parents:
            node = node[key]
        node[name] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointIntegrityError, match=rf"agent 1 has {field} {value}"):
            load_checkpoint(path, cfg)

    def test_missing_field_named(self, saved):
        cfg, path, doc = saved
        del doc["agents"][1]["adam_actor"]["step"]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointIntegrityError, match="agent 1 has no 'adam_actor.step'"):
            load_checkpoint(path, cfg)

    def test_wrong_array_shape_named(self, saved):
        cfg, path, doc = saved
        doc["agents"][1]["critic"]["weights"][0]["shape"] = [8, 5]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointIntegrityError, match=r"agent 1 critic\[0\]: shape"):
            load_checkpoint(path, cfg)


def tiny_training_config(out_dir):
    return config_from_dict({
        "env": {"n": 2, "episode_length": 40, "evader_speed": 0.05, "capture_radius": 0.05},
        "curriculum": {"warmup_epochs": 4, "sessions": [
            {"v0": 1.2, "v_target": 1.0, "v_decay": 12, "epochs": 12,
             "use_scripted_warmup": True}]},
        "ddpg": {"batch_size": 16, "buffer_capacity": 2000,
                 "actor_hidden": [8, 8], "critic_hidden": [8, 8]},
        "run": {"seed": 0, "out_dir": str(out_dir), "strategy": "cd_ddpg",
                "checkpoint_every": 5},
    })


def test_schema_1_checkpoint_resumes_bit_for_bit(tmp_path):
    cfg = tiny_training_config(tmp_path / "full")
    full = run_training(cfg, out_dir=tmp_path / "full")
    inline_as_schema_1(full / "checkpoint_epoch5.json", tmp_path / "v1.json")
    resumed = run_training(cfg, out_dir=tmp_path / "resumed", resume=tmp_path / "v1.json")
    rows = (resumed / "training_curve.csv").read_text().splitlines()
    assert rows[2:] == (full / "training_curve.csv").read_text().splitlines()[2 + 5:]
    for name in ("checkpoint.json", "checkpoint.npz"):
        assert (resumed / name).read_bytes() == (full / name).read_bytes()
