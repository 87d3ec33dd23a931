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
from torus_pursuit.ddpg import AgentLearner, Transition, heading_to_vector
from torus_pursuit.errors import CheckpointIntegrityError
from torus_pursuit.training import run_training

NETWORKS = ("actor", "critic", "actor_target", "critic_target")
OPTIMIZERS = ("adam_actor", "adam_critic")
MOMENTS = ("m", "v")
BUFFER_FIELDS = ("_obs", "_actions", "_rewards", "_next_obs", "_terminals")
SCALARS = ("obs_dim", "gamma", "tau", "lr_actor", "lr_critic", "clip_norm")


def make_learners(fills, obs_dim, actor_hidden, critic_hidden, capacity, seed):
    """Learners whose every array holds distinct values, buffers pushed `fills` times."""
    rng = np.random.default_rng(seed)
    learners = []
    for fill in fills:
        learner = AgentLearner(obs_dim, rng, actor_hidden=actor_hidden,
                               critic_hidden=critic_hidden, buffer_capacity=capacity)
        for net in NETWORKS:
            for b in getattr(learner, net).biases:
                b[:] = rng.standard_normal(b.shape)
        for opt in OPTIMIZERS:
            state = getattr(learner, opt)
            for name in MOMENTS:
                moment = getattr(state, name)
                moment[:] = rng.standard_normal(moment.shape)
            state.step = int(rng.integers(0, 10_000))
        learner.noise.state = rng.standard_normal(2)
        for _ in range(fill):
            learner.buffer.push(Transition(
                rng.standard_normal(obs_dim),
                heading_to_vector(float(rng.uniform(-math.pi, math.pi))),
                float(rng.normal()),
                rng.standard_normal(obs_dim),
                bool(rng.integers(0, 2)),
            ))
        learners.append(learner)
    return learners


def learner_arrays(learner):
    """Every array of a learner's state, by name."""
    out = {"noise": learner.noise.state}
    for net in NETWORKS:
        params = getattr(learner, net)
        for i, (w, b) in enumerate(zip(params.weights, params.biases)):
            out[f"{net}.w{i}"], out[f"{net}.b{i}"] = w, b
    for opt in OPTIMIZERS:
        for name in MOMENTS:
            out[f"{opt}.{name}"] = getattr(getattr(learner, opt), name)
    for name in BUFFER_FIELDS:
        out[name] = getattr(learner.buffer, name)
    return out


def assert_same_learner(want, got):
    for name in SCALARS:
        assert getattr(got, name) == getattr(want, name), name
    for opt in OPTIMIZERS:
        assert getattr(got, opt).step == getattr(want, opt).step
    for net in NETWORKS:
        assert getattr(got, net).hidden_activation == getattr(want, net).hidden_activation
        assert getattr(got, net).output_activation == getattr(want, net).output_activation
    assert (got.noise.theta, got.noise.sigma) == (want.noise.theta, want.noise.sigma)
    b, gb = want.buffer, got.buffer
    assert (gb.capacity, gb.obs_dim, gb._next, gb._size) == (b.capacity, b.obs_dim, b._next, b._size)
    want_arrays, got_arrays = learner_arrays(want), learner_arrays(got)
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
    fills=st.lists(st.integers(0, 40), min_size=1, max_size=3),
    obs_dim=st.integers(1, 5),
    actor_hidden=layer_sizes,
    critic_hidden=layer_sizes,
    capacity=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
)
# a wrapped ring (size == capacity, next == 2), an exactly full one, an empty one
@example(fills=[12, 5, 0], obs_dim=3, actor_hidden=(4,), critic_hidden=(4, 3),
         capacity=5, seed=0)
def test_save_load_identity(fills, obs_dim, actor_hidden, critic_hidden, capacity, seed):
    cfg = ExperimentConfig()
    learners = make_learners(fills, obs_dim, actor_hidden, critic_hidden, capacity, seed)
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp, "a", "ckpt.json"), Path(tmp, "b", "ckpt.json")
        save_checkpoint(a, cfg, learners, 1, 2, 3, RNG_STATES)
        save_checkpoint(b, cfg, learners, 1, 2, 3, RNG_STATES)
        assert sorted(p.name for p in a.parent.iterdir()) == ["ckpt.json", "ckpt.npz"]
        assert a.read_bytes() == b.read_bytes()
        assert sidecar_path(a).read_bytes() == sidecar_path(b).read_bytes()

        loaded, session, epoch, global_epoch, states = load_checkpoint(a, cfg)
        inline_as_schema_1(a, Path(tmp, "v1.json"))
        from_v1, *_ = load_checkpoint(Path(tmp, "v1.json"), cfg)

    assert (session, epoch, global_epoch, states) == (1, 2, 3, RNG_STATES)
    obs = np.random.default_rng(seed).standard_normal(obs_dim)
    for want, got, got_v1 in zip(learners, loaded, from_v1, strict=True):
        assert_same_learner(want, got)
        assert_same_learner(want, got_v1)
        assert got.act(obs) == want.act(obs) == got_v1.act(obs)


def test_wrapped_example_is_a_full_ring():
    learner, = make_learners([12], 3, (4,), (4, 3), 5, 0)
    assert (len(learner.buffer), learner.buffer._next) == (5, 2)


class TestSidecarIntegrity:
    @pytest.fixture
    def saved(self, tmp_path):
        cfg = ExperimentConfig()
        path = tmp_path / "checkpoint_epoch5.json"
        save_checkpoint(path, cfg, make_learners([7], 4, (8,), (8,), 16, 1), 0, 5, 5, RNG_STATES)
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
