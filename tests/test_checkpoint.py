"""Checkpoint layout: save/load identity, byte stability, schemas 1-5, integrity."""

import hashlib
import json
import math
import re
import tempfile
from dataclasses import replace
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalar_reference import heading_to_vector
from torus_pursuit.checkpoint import load_checkpoint, save_checkpoint, sidecar_path
from torus_pursuit.cli import main
from torus_pursuit.config import ExperimentConfig, config_from_dict, load_config
from torus_pursuit.ddpg import make_team as make_config_team
from torus_pursuit.errors import CheckpointIntegrityError, DigestMismatchError, SchemaVersionError
from torus_pursuit.training import run_training

NETWORKS = ("actor", "critic", "actor_target", "critic_target")
OPTIMIZERS = ("adam_actor", "adam_critic")
MOMENTS = ("m", "v")
HYPERPARAMETERS = ("gamma", "tau", "lr_actor", "lr_critic", "clip_norm", "theta_ou", "sigma_ou")
BUFFER_FIELDS = ("_obs", "_rewards", "_terminals")
SCALARS = ("n", "obs_dim", "ddpg")
# a quiet NaN whose payload differs from np.nan's
NAN_PAYLOAD = np.array(0x7FF8_0000_0000_0001, dtype=np.uint64).view(np.float64)

# Schema 2, 3, 4 and 5 checkpoints written at global epoch 4 by
# `train --config tiny_config.json` before the next schema or change, committed
# so that reading them stays tested.
V2_CHECKPOINT = Path(__file__).parent / "data" / "checkpoint_v2" / "checkpoint_epoch4.json"
V2_CONFIG = V2_CHECKPOINT.parent / "tiny_config.json"
V3_CHECKPOINT = Path(__file__).parent / "data" / "checkpoint_v3" / "checkpoint_epoch4.json"
V4_CHECKPOINT = Path(__file__).parent / "data" / "checkpoint_v4" / "checkpoint_epoch4.json"
V5_CHECKPOINT = Path(__file__).parent / "data" / "checkpoint_v5" / "checkpoint_epoch4.json"


def team_config(agents, strategy, actor_hidden, critic_hidden, capacity):
    """The config of a team of `agents` playing `strategy`, with those hidden
    layers and ring capacity; its batch fits any ring."""
    return config_from_dict({
        "env": {"n": agents},
        "ddpg": {"actor_hidden": list(actor_hidden), "critic_hidden": list(critic_hidden),
                 "buffer_capacity": capacity, "batch_size": 1},
        "run": {"strategy": strategy},
    })


def make_team(agents, fill, strategy, actor_hidden, critic_hidden, capacity, seed,
              chained=False):
    """The config of a team and the team it describes, whose every array holds
    distinct values, its rings pushed `fill` times.

    Unchained pushes draw every row afresh. Chained ones fill the rings as
    training does: each push's obs is the previous push's next_obs, except
    after a terminal push, which ends the episode. Every next_obs row starts
    with a unit heading vector, the action taken.
    """
    rng = np.random.default_rng(seed)
    cfg = team_config(agents, strategy, actor_hidden, critic_hidden, capacity)
    team = make_config_team(cfg, rng)
    obs_dim = team.obs_dim
    for net in NETWORKS:
        for b in getattr(team, net).biases:
            b[:] = rng.standard_normal(b.shape)
    for opt in OPTIMIZERS:
        state = getattr(team, opt)
        for name in MOMENTS:
            moment = getattr(state, name)
            moment[:] = rng.standard_normal(moment.shape)
        np.abs(state.v, out=state.v)  # a second moment below 0 is refused at load
        state.step = int(rng.integers(0, 10_000))
    team.noise[...] = rng.standard_normal((agents, 2))
    next_obs, begins = rng.standard_normal((agents, obs_dim)), True
    for _ in range(fill):
        obs, next_obs = (next_obs if chained else rng.standard_normal((agents, obs_dim)),
                         rng.standard_normal((agents, obs_dim)))
        next_obs[:, :2] = [heading_to_vector(t) for t in rng.uniform(-math.pi, math.pi, agents)]
        terminal = bool(rng.integers(0, 4 if chained else 2) == 0)
        team.buffer.push(rng.normal(), next_obs, terminal, obs if begins or not chained else None)
        begins = terminal
        if terminal:
            next_obs = rng.standard_normal((agents, obs_dim))
    return cfg, team


def twist(team, kind):
    """Makes slot 0's next_obs rows equal slot 1's obs rows but for one -0.0
    against +0.0, or one NaN payload against another; the team's first
    reward is the odd one of the two."""
    buf = team.buffer
    if kind is None or len(buf) == 0:
        return
    after = 1 % len(buf)
    same, other = (0.0, -0.0) if kind == "negative_zero" else (np.nan, NAN_PAYLOAD)
    buf._obs[:, after, 0] = same
    rows = buf._obs[:, after].copy()
    rows[:, 0] = other
    row = buf._table_row(0)
    buf._end_rows[row] = rows
    buf._rewards[0] = other


def next_obs(buf):
    """The (agents, size, obs_dim) next observations of a ring's filled slots."""
    return buf._next_rows(np.tile(np.arange(len(buf)), (buf.agents, 1)))


def team_arrays(team):
    """Every array of a team's state, by name; a ring's next observations as
    its filled slots sample them."""
    out = {"noise": team.noise}
    for net in NETWORKS:
        params = getattr(team, net)
        for i, (w, b) in enumerate(zip(params.weights, params.biases)):
            out[f"{net}.w{i}"], out[f"{net}.b{i}"] = w, b
    for opt in OPTIMIZERS:
        for name in MOMENTS:
            out[f"{opt}.{name}"] = getattr(getattr(team, opt), name)
    for name in BUFFER_FIELDS:
        out[name] = getattr(team.buffer, name)
    out["next_obs"] = next_obs(team.buffer)
    return out


def assert_same_team(want, got, bits=True):
    """Equal teams; with `bits`, every float is compared as its uint64 bits."""
    for name in SCALARS:
        assert getattr(got, name) == getattr(want, name), name
    for opt in OPTIMIZERS:
        assert getattr(got, opt).step == getattr(want, opt).step
    b, gb = want.buffer, got.buffer
    assert (gb.capacity, gb.obs_dim, gb._next, gb._size) == (b.capacity, b.obs_dim, b._next, b._size)
    want_arrays, got_arrays = team_arrays(want), team_arrays(got)
    assert want_arrays.keys() == got_arrays.keys()
    for name, a in want_arrays.items():
        assert got_arrays[name].dtype == np.float64, name
        assert got_arrays[name].flags.writeable, name
        if bits:
            assert np.array_equal(got_arrays[name].view(np.uint64), a.view(np.uint64)), name
        else:
            assert np.array_equal(got_arrays[name], a, equal_nan=True), name


def inline(a: np.ndarray) -> dict:
    return {"shape": list(a.shape), "data": a.ravel().tolist()}


def inline_as_schema_1(manifest: Path, cfg: ExperimentConfig, out: Path) -> None:
    """Rewrites the checkpoint at `manifest` as the schema 1 JSON document at
    `out` that holds the same state: every array inline as decimals, and for
    each agent the scalars, rewards, terminal flags and actions schema 1
    stores."""
    team, session, epoch, global_epoch, rng_states = load_checkpoint(manifest, cfg)
    buf, ring = team.buffer, team.buffer.filled()
    agents = []
    for i in range(team.n):
        agent = {"obs_dim": team.obs_dim, **{h: getattr(team.ddpg, h) for h in HYPERPARAMETERS}}
        for name in NETWORKS:
            weights, biases = getattr(team, name).layers(getattr(team, name).flat[i])
            agent[name] = {"weights": [inline(w) for w in weights],
                           "biases": [inline(b) for b in biases],
                           "hidden_activation": "relu", "output_activation": "identity"}
        for name, net in zip(OPTIMIZERS, ("actor", "critic")):
            state = getattr(team, name)
            agent[name] = {"step": state.step}
            for moment in MOMENTS:
                weights, biases = getattr(team, net).layers(getattr(state, moment)[i])
                agent[name][f"{moment}_weights"] = [inline(w) for w in weights]
                agent[name][f"{moment}_biases"] = [inline(b) for b in biases]
        agent["noise_state"] = team.noise[i].tolist()
        rows = next_obs(buf)[i]
        agent["buffer"] = {
            "capacity": buf.capacity, "obs_dim": buf.obs_dim, "next": buf._next,
            "size": len(buf), "obs": inline(ring["obs"][i]), "rewards": inline(ring["rewards"]),
            "terminals": inline(ring["terminals"]), "next_obs": inline(rows),
            "actions": inline(rows[:, :2])}  # the heading columns of next_obs
        agents.append(agent)
    out.write_text(json.dumps({
        "schema_version": 1, "config_digest": cfg.digest(), "session": session, "epoch": epoch,
        "global_epoch": global_epoch, "agents": agents, "rng_states": rng_states}))


RNG_STATES = {"env": np.random.default_rng(3).bit_generator.state, "explore": [], "sample": []}

layer_sizes = st.lists(st.integers(1, 6), min_size=1, max_size=2).map(tuple)


@settings(max_examples=25, deadline=None)
@given(
    agents=st.integers(1, 3),
    fill=st.integers(0, 40),
    strategy=st.sampled_from(["cd_ddpg", "cd_ddpg_partial"]),
    actor_hidden=layer_sizes,
    critic_hidden=layer_sizes,
    capacity=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
    chained=st.booleans(),
    kind=st.sampled_from([None, "negative_zero", "nan_payload"]),
)
# a wrapped ring (size == capacity, next == 2), an exactly full one, an empty one
@example(agents=3, fill=12, strategy="cd_ddpg_partial", actor_hidden=(4,), critic_hidden=(4, 3),
         capacity=5, seed=0, chained=False, kind=None)
@example(agents=2, fill=5, strategy="cd_ddpg_partial", actor_hidden=(4,), critic_hidden=(4, 3),
         capacity=5, seed=0, chained=False, kind=None)
@example(agents=1, fill=0, strategy="cd_ddpg", actor_hidden=(4,), critic_hidden=(4, 3),
         capacity=5, seed=0, chained=False, kind=None)
# chained: a wrapped ring, capacity 1, an empty ring, and slot 0's next_obs
# differing from slot 1's obs only by -0.0 against +0.0 or by a NaN payload
@example(agents=3, fill=23, strategy="cd_ddpg_partial", actor_hidden=(4,), critic_hidden=(4, 3),
         capacity=16, seed=2, chained=True, kind=None)
@example(agents=2, fill=4, strategy="cd_ddpg_partial", actor_hidden=(1,), critic_hidden=(3,),
         capacity=1, seed=0, chained=True, kind=None)
@example(agents=2, fill=0, strategy="cd_ddpg_partial", actor_hidden=(4,), critic_hidden=(4, 3),
         capacity=5, seed=0, chained=True, kind=None)
@example(agents=2, fill=9, strategy="cd_ddpg_partial", actor_hidden=(4,), critic_hidden=(4, 3),
         capacity=16, seed=0, chained=True, kind="negative_zero")
@example(agents=2, fill=9, strategy="cd_ddpg_partial", actor_hidden=(4,), critic_hidden=(4, 3),
         capacity=16, seed=0, chained=True, kind="nan_payload")
def test_save_load_identity(agents, fill, strategy, actor_hidden, critic_hidden, capacity, seed,
                            chained, kind):
    cfg, team = make_team(agents, fill, strategy, actor_hidden, critic_hidden, capacity, seed,
                          chained)
    twist(team, kind)
    position = (1, 2, cfg.curriculum.sessions[0].epochs + 2)  # epoch 2 of the second session
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp, "a", "ckpt.json"), Path(tmp, "b", "ckpt.json")
        save_checkpoint(a, cfg, team, position[2], RNG_STATES)
        save_checkpoint(b, cfg, team, position[2], RNG_STATES)
        assert sorted(p.name for p in a.parent.iterdir()) == ["ckpt.json", "ckpt.npz"]
        assert a.read_bytes() == b.read_bytes()
        assert sidecar_path(a).read_bytes() == sidecar_path(b).read_bytes()

        # the manifest holds only what the config does not fix
        doc, buf, size = json.loads(a.read_text()), team.buffer, len(team.buffer)
        assert list(doc) == ["schema_version", "config_digest", "session", "epoch",
                             "global_epoch", "noise", "adam_steps", "buffer", "rng_states",
                             "sidecar"]
        assert doc["noise"] == team.noise.tolist()
        assert doc["adam_steps"] == {name: getattr(team, name).step for name in OPTIMIZERS}
        assert doc["buffer"] == {"next": buf._next, "size": size}
        with np.load(sidecar_path(a)) as arrays:
            entries = {key: arrays[key] for key in arrays.files}
        own = [f"agents.{i}{field}" for i in range(agents) for field in ("", ".buffer.obs")]
        assert sorted(entries) == sorted(own + ["buffer.end_rows", "buffer.ends",
                                                "buffer.rewards", "buffer.terminals"])
        # the state rows and rings as they lie in memory, and no actions: they
        # are next_obs's heading columns
        for i in range(agents):
            assert entries[f"agents.{i}"].tobytes() == team.state[i].tobytes()
            assert entries[f"agents.{i}.buffer.obs"].tobytes() == buf._obs[i, :size].tobytes()
        ends = entries["buffer.ends"]
        assert ends.dtype == np.int64
        assert entries["buffer.end_rows"].size == len(ends) * agents * team.obs_dim
        if kind is not None and size:
            assert ends[0] == 0  # the twisted slot is stored, not rebuilt
        if chained:
            episode_ends = int(buf._terminals[:size].sum())
            assert len(ends) <= episode_ends + 1 + (kind is not None)

        loaded, *got_position, states = load_checkpoint(a, cfg)
        inline_as_schema_1(a, cfg, Path(tmp, "v1.json"))
        from_v1, *_ = load_checkpoint(Path(tmp, "v1.json"), cfg)

    assert (*got_position, states) == (*position, RNG_STATES)
    assert_same_team(team, loaded)
    assert_same_team(team, from_v1, bits=kind != "nan_payload")  # JSON drops NaN payloads
    obs = np.random.default_rng(seed).standard_normal((1, agents, team.obs_dim))
    assert loaded.act(obs).tolist() == team.act(obs).tolist() == from_v1.act(obs).tolist()


def test_saving_at_a_global_epoch_stores_its_position_in_the_plan(tmp_path):
    # every global epoch of a 3-session plan, its end included, is a position
    # the reader accepts, and the only one the writer can be asked for
    cfg = config_from_dict({**json.loads(V2_CONFIG.read_text()), "curriculum": {
        "warmup_epochs": 1, "sessions": [
            {"v0": 1.2, "v_target": 1.1, "v_decay": 2, "epochs": 2, "use_scripted_warmup": True},
            {"v0": 1.1, "v_target": 1.0, "v_decay": 1, "epochs": 1},
            {"v0": 1.0, "v_target": 0.9, "v_decay": 3, "epochs": 3}]}})
    plan, team = cfg.curriculum, make_config_team(cfg, np.random.default_rng(0))
    for g in range(sum(s.epochs for s in plan.sessions) + 1):
        path = tmp_path / f"checkpoint_epoch{g}.json"
        save_checkpoint(path, cfg, team, g, RNG_STATES)
        _, session, epoch, global_epoch, _ = load_checkpoint(path, cfg)
        assert (session, epoch, global_epoch) == (*plan.position(g), g)


def test_wrapped_example_is_a_full_ring():
    _, team = make_team(3, 12, "cd_ddpg_partial", (4,), (4, 3), 5, 0)
    assert (len(team.buffer), team.buffer._next) == (5, 2)


class TestSidecarIntegrity:
    @pytest.fixture
    def saved(self, tmp_path):
        cfg, team = make_team(1, 7, "cd_ddpg", (8,), (8,), 16, 1)
        path = tmp_path / "checkpoint_epoch5.json"
        save_checkpoint(path, cfg, team, 5, RNG_STATES)
        assert sidecar_path(path) == tmp_path / "checkpoint_epoch5.npz"
        return cfg, path, sidecar_path(path)

    def test_manifest_records_sidecar(self, saved):
        _, path, sidecar = saved
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 5
        assert doc["sidecar"]["file"] == sidecar.name
        assert doc["sidecar"]["bytes"] == sidecar.stat().st_size
        assert doc["buffer"] == {"next": 7, "size": 7}
        assert "agents" not in doc
        with np.load(sidecar) as arrays:
            assert sorted(arrays.files) == [
                "agents.0", "agents.0.buffer.obs", "buffer.end_rows", "buffer.ends",
                "buffer.rewards", "buffer.terminals"]
            # a lone pursuer observes 4 values; every slot of this unchained fill is an end
            assert arrays["agents.0.buffer.obs"].shape == (7 * 4,)
            assert arrays["buffer.ends"].tolist() == list(range(7))
            assert arrays["buffer.end_rows"].shape == (7 * 4,)

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

    @staticmethod
    def refused(cfg, path, edit, match):
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointIntegrityError, match=match):
            load_checkpoint(path, cfg)

    def test_sidecar_entry_not_an_object(self, saved):
        cfg, path, sidecar = saved
        self.refused(cfg, path, lambda doc: doc.__setitem__("sidecar", sidecar.name),
                     r"sidecar is str, want an object")

    @pytest.mark.parametrize("field", ["file", "bytes", "sha256"])
    def test_sidecar_field_missing(self, saved, field):
        cfg, path, _ = saved
        self.refused(cfg, path, lambda doc: doc["sidecar"].pop(field),
                     rf"sidecar\.{field} is None, want an? (integer|string)")

    @pytest.mark.parametrize("field, value, want", [
        ("file", 5, "a string"), ("bytes", "1234", "an integer"), ("bytes", True, "an integer"),
        ("sha256", 0, "a string"),
    ])
    def test_sidecar_field_of_wrong_type(self, saved, field, value, want):
        cfg, path, _ = saved
        self.refused(cfg, path, lambda doc: doc["sidecar"].__setitem__(field, value),
                     rf"sidecar\.{field} is {value!r}, want {want}")

    @pytest.mark.parametrize("where", ["absolute", "parent"])
    def test_sidecar_outside_manifest_directory(self, saved, where):
        # both name the real sidecar, which a plain join would read
        cfg, path, sidecar = saved
        moved = path.parent / "sub" / path.name
        moved.parent.mkdir()
        path.replace(moved)
        name = str(sidecar.resolve()) if where == "absolute" else f"../{sidecar.name}"
        self.refused(cfg, moved, lambda doc: doc["sidecar"].__setitem__("file", name),
                     r"sidecar\.file .* is not a file name in the manifest's directory")


@pytest.fixture
def v4_copy(tmp_path):
    """The tiny config and a copy of the committed schema 4 snapshot, whose
    manifest spells out every agent, to edit."""
    path = copied(V4_CHECKPOINT, tmp_path)
    return load_config(V2_CONFIG), path, json.loads(path.read_text())


class TestTeamAgreement:
    """A team updates in lockstep, so a schema 1-4 manifest whose agents
    disagree is refused."""

    @pytest.fixture
    def saved(self, v4_copy):
        return v4_copy

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

    @pytest.mark.parametrize("field, value", [
        ("gamma", 0.5), ("gamma", 2.0), ("tau", 5.0), ("clip_norm", -1.0), ("lr_actor", math.nan),
    ])
    def test_every_agent_edited(self, saved, field, value):
        # the agents agree, but the config describes another team
        cfg, path, doc = saved
        for agent in doc["agents"]:
            agent[field] = value
        path.write_text(json.dumps(doc))
        want = getattr(cfg.ddpg, field)
        with pytest.raises(CheckpointIntegrityError, match=re.escape(
                f"agent 0 has {field} {value!r}, but the config's ddpg.{field} gives {want!r}")):
            load_checkpoint(path, cfg)

    def test_fewer_agents_than_the_config(self, saved):
        cfg, path, doc = saved
        del doc["agents"][1:]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointIntegrityError,
                           match=r"checkpoint holds 1 agents, but the config's env\.n is 2"):
            load_checkpoint(path, cfg)

    def test_strategy_observing_another_width(self, saved):
        cfg, path, _ = saved
        partial = replace(cfg, run=replace(cfg.run, strategy="cd_ddpg_partial"))
        with pytest.raises(CheckpointIntegrityError, match=re.escape(
                "agent 0 has obs_dim 6, but the config's run.strategy 'cd_ddpg_partial' gives 4")):
            load_checkpoint(path, partial)

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


class TestMalformedManifest:
    """A schema 1-4 manifest field that cannot be read is refused, naming the
    agent and the field, instead of escaping as a raw exception."""

    @pytest.fixture
    def saved(self, v4_copy):
        return v4_copy

    @staticmethod
    def refused(saved, match):
        cfg, path, doc = saved
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointIntegrityError, match=match):
            load_checkpoint(path, cfg)

    def test_reference_without_key(self, saved):
        del saved[2]["agents"][1]["actor"]["weights"][0]["key"]
        self.refused(saved, r"agent 1 actor\[0\]: a reference needs a string 'key'")

    def test_fractional_offset(self, saved):
        saved[2]["agents"][1]["critic"]["weights"][0]["offset"] = 1.5
        self.refused(saved, r"agent 1 critic\[0\]: .*integer 'offset', got .* and 1\.5")

    def test_noise_state_of_three_values(self, saved):
        saved[2]["agents"][1]["noise_state"] = [0.1, 0.2, 0.3]
        self.refused(saved, r"agent 1 has noise_state \[0\.1, 0\.2, 0\.3\], want 2 numbers")

    def test_missing_rng_states(self, saved):
        del saved[2]["rng_states"]
        self.refused(saved, r"checkpoint_epoch4\.json has no 'rng_states'")

    def test_string_buffer_size(self, saved):
        for agent in saved[2]["agents"]:
            agent["buffer"]["size"] = "7"
        self.refused(saved, r"agent 0 has buffer\.size '7', want an integer >= 0")

    def test_negative_adam_step(self, saved):
        # it used to load and fail the first update with a traceback
        for agent in saved[2]["agents"]:
            agent["adam_actor"]["step"] = -1
        self.refused(saved, r"agent 0 has adam_actor\.step -1, want an integer >= 0")

    def test_unwrapped_ring_writing_past_its_size(self, saved):
        # 7 of 16 slots filled, so the next push goes to slot 7
        for agent in saved[2]["agents"]:
            agent["buffer"]["size"], agent["buffer"]["next"] = 7, 3
        self.refused(saved, r"replay bookkeeping \{'next': 3, 'size': 7\} does not fit")

    def test_weight_shape_without_sizes(self, saved):
        saved[2]["agents"][0]["actor"]["weights"][0]["shape"] = []
        self.refused(saved, r"agent 0 actor\[0\]: shape \[\], want \[4, 6\]")

    def test_unknown_activation(self, saved):
        for agent in saved[2]["agents"]:
            agent["actor_target"]["hidden_activation"] = "tanh"
        self.refused(saved, r"agent 0 has actor_target\.hidden_activation 'tanh'; "
                            "the networks run only 'relu'")


class TestSchema5Manifest:
    """Schema 5 stores per team only the noise, the Adam step counts and the
    ring bookkeeping; a value of the wrong shape or type is refused, naming
    the field."""

    @pytest.fixture
    def saved(self, tmp_path):
        cfg, team = make_team(2, 7, "cd_ddpg_partial", (8,), (8,), 16, 1)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, cfg, team, 5, RNG_STATES)
        return cfg, path, json.loads(path.read_text())

    @pytest.mark.parametrize("field, value, match", [
        ("noise", [[0.1, 0.2]], r"noise \[\[0\.1, 0\.2\]\]: want 2 rows of 2 numbers"),
        ("noise", [[0.1, 0.2], [0.1, 0.2, 0.3]], r"noise .*: want 2 rows of 2 numbers"),
        ("noise", [[0.1, "0.2"], [0.1, 0.2]], r"noise .*: want 2 rows of 2 numbers"),
        ("noise", [[0.1, True], [0.1, 0.2]], r"noise .*: want 2 rows of 2 numbers"),
        ("noise", [0.1, 0.2], r"noise .*: want 2 rows of 2 numbers"),
        ("adam_steps", {"adam_actor": 3}, re.escape(
            "adam_steps {'adam_actor': 3}: want an integer >= 0 for each of "
            "['adam_actor', 'adam_critic']")),
        ("adam_steps", {"adam_actor": 3, "adam_critic": 2.5}, r"adam_steps .*: want an integer"),
        ("adam_steps", {"adam_actor": 3, "adam_critic": True}, r"adam_steps .*: want an integer"),
        ("adam_steps", 3, r"adam_steps 3: want an integer"),
        # a negative count used to load and fail the first update with a traceback
        ("adam_steps", {"adam_actor": -1, "adam_critic": 0},
         r"adam_steps .*: want an integer >= 0"),
        ("buffer", {"next": "7", "size": 7}, re.escape(
            "buffer {'next': '7', 'size': 7}: want an integer >= 0 for each of ['next', 'size']")),
        ("buffer", {"next": 7}, r"buffer .*: want an integer >= 0 for each of"),
        ("buffer", [7, 7], r"buffer \[7, 7\]: want an integer >= 0 for each of"),
        # 7 of 16 slots filled, so the next push goes to slot 7
        ("buffer", {"next": 3, "size": 7},
         r"replay bookkeeping \{'next': 3, 'size': 7\} does not fit a ring of 16"),
        ("buffer", {"next": 0, "size": 17}, r"replay bookkeeping .* does not fit a ring of 16"),
        ("buffer", {"next": -1, "size": 16}, r"buffer .*: want an integer >= 0"),
    ], ids=["noise one row", "noise three values", "noise string", "noise bool", "noise flat",
            "steps missing", "steps fractional", "steps bool", "steps not an object",
            "steps negative",
            "buffer string", "buffer missing size", "buffer list", "unwrapped past its size",
            "beyond capacity", "negative next"])
    def test_malformed_team_field(self, saved, field, value, match):
        cfg, path, doc = saved
        doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointIntegrityError, match=match):
            load_checkpoint(path, cfg)

    @pytest.mark.parametrize("field", ["noise", "adam_steps", "buffer"])
    def test_missing_field_named(self, saved, field):
        cfg, path, doc = saved
        del doc[field]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointIntegrityError, match=rf"ckpt\.json has no '{field}'"):
            load_checkpoint(path, cfg)

    def test_strategy_observing_another_width(self, saved):
        # the state row of an agent observing 4 values is too short for one observing 6
        cfg, path, _ = saved
        full = replace(cfg, run=replace(cfg.run, strategy="cd_ddpg"))
        with pytest.raises(CheckpointIntegrityError, match=re.escape(
                "agent 0 state, as run.strategy 'cd_ddpg' observes 6 values: values 0..")
                + r"\d+ are not in sidecar entry 'agents\.0'"):
            load_checkpoint(path, full)


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
    inline_as_schema_1(full / "checkpoint_epoch5.json", cfg, tmp_path / "v1.json")
    resumed = run_training(cfg, out_dir=tmp_path / "resumed", resume=tmp_path / "v1.json")
    rows = (resumed / "training_curve.csv").read_text().splitlines()
    assert rows[2:] == (full / "training_curve.csv").read_text().splitlines()[2 + 5:]
    for name in ("checkpoint.json", "checkpoint.npz"):
        assert (resumed / name).read_bytes() == (full / name).read_bytes()


def rewrite_sidecar(path: Path, edit) -> None:
    """Applies `edit(arrays)` to the sidecar entries of the checkpoint at `path`
    and rewrites the sidecar, recording its new size and SHA-256."""
    doc, sidecar = json.loads(path.read_text()), sidecar_path(path)
    with np.load(sidecar) as z:
        arrays = {key: z[key] for key in z.files}
    edit(arrays)
    with open(sidecar, "wb") as fh:
        np.savez(fh, **arrays)
    doc["sidecar"]["bytes"] = sidecar.stat().st_size
    doc["sidecar"]["sha256"] = hashlib.sha256(sidecar.read_bytes()).hexdigest()
    path.write_text(json.dumps(doc))


class TestMalformedRing:
    """A schema 1-4 ring field that cannot be decoded is refused, naming the
    agent and the field."""

    BREAKS = "agents.0.buffer.next_obs.breaks"

    @pytest.fixture
    def saved(self, v4_copy):
        cfg, path, _ = v4_copy
        with np.load(sidecar_path(path)) as arrays:
            assert 2 <= len(arrays[self.BREAKS]) < 16  # a wrapped ring with a few breaks
        return cfg, path

    @pytest.mark.parametrize("slot", [-1, 16])
    def test_break_outside_ring(self, saved, slot):
        cfg, path = saved
        rewrite_sidecar(path, lambda arrays: arrays[self.BREAKS].__setitem__(
            0 if slot < 0 else -1, slot))
        with pytest.raises(CheckpointIntegrityError,
                           match=r"agent 0 buffer\.next_obs\.breaks: .*\[0, 16\)"):
            load_checkpoint(path, cfg)

    def test_breaks_not_increasing(self, saved):
        cfg, path = saved
        rewrite_sidecar(path, lambda arrays: arrays[self.BREAKS].__setitem__(
            1, arrays[self.BREAKS][0]))
        with pytest.raises(CheckpointIntegrityError,
                           match=r"agent 0 buffer\.next_obs\.breaks: .*strictly increasing"):
            load_checkpoint(path, cfg)

    def test_break_not_an_integer(self, saved):
        cfg, path = saved

        def edit(arrays):
            arrays[self.BREAKS] = arrays[self.BREAKS] + 0.5

        rewrite_sidecar(path, edit)
        with pytest.raises(CheckpointIntegrityError,
                           match=r"agent 0 buffer\.next_obs\.breaks: values are float64, "
                                 "want int64"):
            load_checkpoint(path, cfg)

    def test_row_count_differs_from_breaks(self, saved):
        cfg, path = saved
        rows = "agents.0.buffer.next_obs.rows"

        def edit(arrays):
            arrays[rows] = arrays[rows][:-6]  # one row of 6 observations fewer

        rewrite_sidecar(path, edit)
        doc = json.loads(path.read_text())
        for agent in doc["agents"]:  # the manifest agrees with the shortened entry
            agent["buffer"]["next_obs"]["rows"]["shape"][0] -= 1
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointIntegrityError,
                           match=r"agent 0 buffer\.next_obs\.rows: shape .*one row per break"):
            load_checkpoint(path, cfg)

    def test_shared_reference_of_wrong_length(self, saved):
        cfg, path = saved
        doc = json.loads(path.read_text())
        assert doc["agents"][1]["buffer"]["rewards"]["key"] == "buffer.rewards"
        doc["agents"][1]["buffer"]["rewards"]["key"] = "agents.0.buffer.obs"
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointIntegrityError,
                           match=r"agent 1 buffer\.rewards\[0\]: .*'agents\.0\.buffer\.obs', "
                                 "which holds 96"):
            load_checkpoint(path, cfg)


def shorten(key, values=1):
    """A sidecar edit that drops the last `values` values of entry `key`."""
    return lambda arrays: arrays.__setitem__(key, arrays[key][:-values])


def set_value(key, index, value):
    """A sidecar edit that sets entry `key`'s value at `index`."""
    def edit(arrays):
        arrays[key] = arrays[key].copy()
        arrays[key][index] = value
    return edit


def drop_end(slot):
    """A sidecar edit that drops end slot `slot` and its rows from the end table."""
    def edit(arrays):
        ends = arrays["buffer.ends"]
        assert slot in ends
        kept = ends != slot
        arrays["buffer.ends"] = ends[kept]
        arrays["buffer.end_rows"] = arrays["buffer.end_rows"].reshape(len(ends), -1)[kept].ravel()
    return edit


class TestSchema5Ring:
    """A schema 5 ring entry that does not hold what the config and the
    bookkeeping give is refused, naming the entry."""

    @pytest.fixture
    def saved(self, tmp_path):
        path = tmp_path / "ckpt.json"
        cfg, team = make_team(2, 30, "cd_ddpg_partial", (8,), (8,), 16, 1, chained=True)
        save_checkpoint(path, cfg, team, 5, RNG_STATES)
        with np.load(sidecar_path(path)) as arrays:
            assert 2 <= len(arrays["buffer.ends"]) < 16  # a wrapped ring with a few ends
        return cfg, path

    @pytest.mark.parametrize("edit, match", [
        (set_value("buffer.ends", 0, -1), r"buffer\.ends: slots must be strictly increasing in "
                                          r"\[0, 16\)"),
        (set_value("buffer.ends", -1, 16), r"buffer\.ends: .*\[0, 16\)"),
        (set_value("buffer.ends", 1, 0), r"buffer\.ends: .*strictly increasing"),
        (lambda arrays: arrays.__setitem__("buffer.ends", arrays["buffer.ends"] + 0.5),
         r"buffer\.ends: values are float64, want int64"),
        (lambda arrays: arrays.pop("buffer.ends"),
         r"buffer\.ends: values 0\.\.0 are not in sidecar entry 'buffer\.ends'"),
        # one row of 2 agents' 4 observations fewer
        (shorten("buffer.end_rows", 8), r"buffer\.end_rows: values 0\.\.\d+ are not in sidecar "
                                        r"entry 'buffer\.end_rows'"),
        (shorten("buffer.ends"), r"buffer\.end_rows: refers to values 0\.\.\d+ of sidecar entry "
                                 r"'buffer\.end_rows', which holds \d+"),
        (shorten("agents.1.buffer.obs"), r"agents\.1\.buffer\.obs: values 0\.\.64 are not in "
                                         r"sidecar entry 'agents\.1\.buffer\.obs'"),
        (shorten("buffer.terminals"), r"buffer\.terminals: values 0\.\.16 are not in"),
        (lambda arrays: arrays.__setitem__("buffer.rewards", np.zeros(16, dtype=np.float32)),
         r"buffer\.rewards: values are float32, want float64"),
        (shorten("agents.1"), r"agent 1 state, .*: values 0\.\.\d+ are not in sidecar entry "
                              r"'agents\.1'"),
        # 30 pushes into 16 slots write next at slot 14; the next push reads
        # the row of the write head, slot 13
        (drop_end(13), r"buffer\.ends: lacks the write head, slot 13$"),
    ], ids=["end before the ring", "end past the ring", "ends not increasing", "fractional ends",
            "no ends", "end rows short", "end rows beyond the ends", "obs short",
            "terminals short", "float32 rewards", "state row short", "no write head"])
    def test_malformed_entry(self, saved, edit, match):
        cfg, path = saved
        rewrite_sidecar(path, edit)
        with pytest.raises(CheckpointIntegrityError, match=match):
            load_checkpoint(path, cfg)


class TestStateThatCannotTrain:
    """A network or Adam value that is not finite, and an Adam second moment
    below 0, are refused at load, naming the agent and the part: the first
    update or act would turn them into NaN."""

    @staticmethod
    def saved(tmp_path, part, value):
        cfg, team = make_team(2, 30, "cd_ddpg_partial", (8,), (8,), 16, 1, chained=True)
        owner, _, moment = part.partition(".")
        values = getattr(getattr(team, owner), moment or "flat")
        values[1, 3] = value
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, cfg, team, 5, RNG_STATES)
        return cfg, path, team

    @pytest.mark.parametrize("part, value, match", [
        ("actor", math.nan, r"^agent 1 actor: value 3 is nan, want a finite number$"),
        ("critic_target", math.inf, r"^agent 1 critic_target: value 3 is inf, want a finite "
                                    r"number$"),
        ("adam_actor.m", -math.inf, r"^agent 1 adam_actor\.m: value 3 is -inf, want a finite "
                                    r"number$"),
        ("adam_critic.v", -5e-324, r"^agent 1 adam_critic\.v: value 3 is -5e-324, want a "
                                   r"finite number >= 0$"),
        ("adam_actor.v", math.inf, r"^agent 1 adam_actor\.v: value 3 is inf, want a finite "
                                   r"number >= 0$"),
    ], ids=["nan actor", "inf target critic", "-inf first moment", "negative second moment",
            "inf second moment"])
    @pytest.mark.parametrize("replay", [True, False], ids=["replay", "no replay"])
    def test_refused(self, tmp_path, part, value, match, replay):
        cfg, path, _ = self.saved(tmp_path, part, value)
        # the refusal names the file, then the agent and the part
        with pytest.raises(CheckpointIntegrityError,
                           match=f"^checkpoint {re.escape(str(path))}: {match[1:]}"):
            load_checkpoint(path, cfg, replay=replay)

    def test_negative_zero_second_moment_loads(self, tmp_path):
        cfg, path, team = self.saved(tmp_path, "adam_critic.v", -0.0)
        loaded, *_ = load_checkpoint(path, cfg)
        assert loaded.state.tobytes() == team.state.tobytes()


def resumes_fixture_bit_for_bit(tmp_path, fixture, version):
    """The committed snapshot `fixture` of schema `version` holds the state the
    current writer stores at the same epoch, and resuming from it ends on the
    uninterrupted run's bytes."""
    cfg = load_config(V2_CONFIG)
    full = run_training(cfg, out_dir=tmp_path / "full")
    snapshot = full / fixture.name
    assert json.loads(fixture.read_text())["schema_version"] == version
    assert json.loads(snapshot.read_text())["schema_version"] == 5
    assert sidecar_path(snapshot).stat().st_size < sidecar_path(fixture).stat().st_size

    from_fixture, *fixture_rest = load_checkpoint(fixture, cfg)
    from_now, *now_rest = load_checkpoint(snapshot, cfg)
    assert len(from_fixture.buffer) == from_fixture.buffer.capacity  # the fixture's ring has wrapped
    assert fixture_rest == now_rest
    assert_same_team(from_now, from_fixture)
    resume_ends_on_uninterrupted_bytes(tmp_path, cfg, fixture, full)


def resume_ends_on_uninterrupted_bytes(tmp_path, cfg, fixture, full):
    """Resuming `cfg` from the epoch-4 snapshot `fixture` writes the rows and
    final checkpoint of the uninterrupted run in `full`."""
    resumed = run_training(cfg, out_dir=tmp_path / "resumed", resume=fixture)
    rows = (resumed / "training_curve.csv").read_text().splitlines()
    assert rows[2:] == (full / "training_curve.csv").read_text().splitlines()[2 + 4:]
    for name in ("checkpoint.json", "checkpoint.npz"):
        assert (resumed / name).read_bytes() == (full / name).read_bytes()


def test_schema_2_fixture_loads_and_resumes_bit_for_bit(tmp_path):
    resumes_fixture_bit_for_bit(tmp_path, V2_CHECKPOINT, 2)


def test_schema_3_fixture_loads_and_resumes_bit_for_bit(tmp_path):
    resumes_fixture_bit_for_bit(tmp_path, V3_CHECKPOINT, 3)


def test_schema_4_fixture_loads_and_resumes_bit_for_bit(tmp_path):
    resumes_fixture_bit_for_bit(tmp_path, V4_CHECKPOINT, 4)


def test_schema_5_fixture_is_what_the_writer_stores_and_resumes_bit_for_bit(tmp_path):
    cfg = load_config(V2_CONFIG)
    full = run_training(cfg, out_dir=tmp_path / "full")
    snapshot = full / V5_CHECKPOINT.name
    want, got = (json.loads(p.read_text()) for p in (V5_CHECKPOINT, snapshot))
    for doc in (want, got):  # the zip writer fixes the sidecar's bytes, not its entries
        del doc["sidecar"]["bytes"], doc["sidecar"]["sha256"]
    assert got == want
    with np.load(sidecar_path(V5_CHECKPOINT)) as fixed, np.load(sidecar_path(snapshot)) as fresh:
        assert sorted(fresh.files) == sorted(fixed.files)
        for key in fixed.files:
            a, b = fixed[key], fresh[key]
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), key
    resume_ends_on_uninterrupted_bytes(tmp_path, cfg, V5_CHECKPOINT, full)


def copied(fixture: Path, out: Path) -> Path:
    """A copy of a committed snapshot and its sidecar in `out`."""
    for src in (fixture, sidecar_path(fixture)):
        (out / src.name).write_bytes(src.read_bytes())
    return out / fixture.name


def edit_ring(path: Path, version: int, agent: int, name: str, slot: int, value: float) -> None:
    """Sets `name`[slot] (the slot's first value) of `agent`'s ring in the
    checkpoint at `path`: in the inline data of schema 1, in the agent's own
    sidecar entry otherwise. A schema 3 or 4 agent that refers to agent 0's
    rewards gets its own entry first."""
    doc = json.loads(path.read_text())
    ref = doc["agents"][agent]["buffer"][name]
    if version == 1:
        ref["data"][slot * math.prod(ref["shape"][1:])] = value
        path.write_text(json.dumps(doc))
        return
    own = f"agents.{agent}.buffer.{name}"
    shared = ref["key"] != own
    ref["key"] = own
    path.write_text(json.dumps(doc))

    def edit(arrays):
        if shared:
            arrays[own] = arrays[f"agents.0.buffer.{name}" if version == 3 else f"buffer.{name}"]
        values = arrays[own].copy()
        values[slot * math.prod(ref["shape"][1:])] = value
        arrays[own] = values

    rewrite_sidecar(path, edit)


def as_schema(version: int, tmp_path: Path) -> Path:
    """A snapshot of `tiny_config.json` at global epoch 4 in schema `version`."""
    if version == 1:
        inline_as_schema_1(V3_CHECKPOINT, load_config(V2_CONFIG), tmp_path / "v1.json")
        return tmp_path / "v1.json"
    if version == 5:
        run_training(load_config(V2_CONFIG), out_dir=tmp_path / "run")
        return tmp_path / "run" / V3_CHECKPOINT.name
    return copied({2: V2_CHECKPOINT, 3: V3_CHECKPOINT, 4: V4_CHECKPOINT}[version], tmp_path)


class TestStoredFactsDisagree:
    """A stored action is the heading its slot's next observation starts with,
    and the team shares one reward and one terminal flag: a file whose facts
    disagree is refused, naming the agent, the field and the slot."""

    @pytest.mark.parametrize("version", [1, 2, 3])
    @pytest.mark.parametrize("value", [0.5, -0.0])
    def test_edited_action_refused(self, tmp_path, version, value):
        path = as_schema(version, tmp_path)
        edit_ring(path, version, 1, "actions", 5, value)
        with pytest.raises(CheckpointIntegrityError, match=re.escape(
                f"agent 1 buffer.actions slot 5: [{value!r}, ")
                + r".* differs from the next observation's heading columns, \["):
            load_checkpoint(path, load_config(V2_CONFIG))

    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", ["rewards", "terminals"])
    def test_edited_team_field_refused(self, tmp_path, version, name):
        path = as_schema(version, tmp_path)
        edit_ring(path, version, 1, name, 3, -0.0)  # the stored value is -0.1, 0.0 or 1.0
        with pytest.raises(CheckpointIntegrityError, match=re.escape(
                f"agent 1 buffer.{name} slot 3: -0.0 differs from agent 0's, ")):
            load_checkpoint(path, load_config(V2_CONFIG))

    @pytest.mark.parametrize("version", [1, 2, 3])
    @pytest.mark.parametrize("name", ["actions", "rewards"])
    def test_cli_resume_from_edited_file_exits_2(self, tmp_path, capsys, version, name):
        path = as_schema(version, tmp_path)
        edit_ring(path, version, 1, name, 2, 0.25)
        assert main(["train", "--config", str(V2_CONFIG), "--out", str(tmp_path / "resumed"),
                     "--resume", str(path)]) == 2
        value = "[0.25, " if name == "actions" else "0.25 "
        assert capsys.readouterr().err.startswith(
            f"error: checkpoint {path}: agent 1 buffer.{name} slot 2: {value}")
        assert not (tmp_path / "resumed").exists()

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
    def test_unedited_file_loads(self, tmp_path, version):
        team, *_ = load_checkpoint(as_schema(version, tmp_path), load_config(V2_CONFIG))
        with np.load(sidecar_path(V3_CHECKPOINT)) as arrays:
            assert np.array_equal(team.buffer._obs[1].ravel(), arrays["agents.1.buffer.obs"])

    def test_schema_3_without_actions_refused(self, tmp_path):
        path = as_schema(3, tmp_path)
        doc = json.loads(path.read_text())
        del doc["agents"][0]["buffer"]["actions"]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointIntegrityError, match="agent 0 has no 'buffer.actions'"):
            load_checkpoint(path, load_config(V2_CONFIG))


@pytest.mark.parametrize("version", [2, 3, 4, 5])
def test_load_reads_each_sidecar_entry_once(tmp_path, monkeypatch, version):
    path = as_schema(version, tmp_path)
    reads = []
    get = np.lib.npyio.NpzFile.__getitem__

    def counted(z, key):
        reads.append(key)
        return get(z, key)

    monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", counted)
    load_checkpoint(path, load_config(V2_CONFIG))
    with np.load(sidecar_path(path)) as arrays:
        names = arrays.files
    assert sorted(reads) == sorted(names)


@pytest.mark.parametrize("version", [4, 5])
@pytest.mark.parametrize("edit, match", [
    (lambda doc: "[1, 2]", r"is a JSON list, want an object"),
    (lambda doc: json.dumps(doc)[:-1], r"is not JSON: "),
    (lambda doc: json.dumps({**doc, "session": "0"}), re.escape(
        "{'session': '0', 'epoch': 4, 'global_epoch': 4} is no position in the config's plan "
        "of sessions of [6] epochs")),
    (lambda doc: json.dumps({**doc, "session": -1}), r"'session': -1, .* is no position"),
    (lambda doc: json.dumps({**doc, "epoch": 2.5}), r"'epoch': 2\.5, .* is no position"),
    (lambda doc: json.dumps({**doc, "epoch": True}), r"'epoch': True, .* is no position"),
    # the plan's one session has 6 epochs, and its end is session 1, epoch 0
    (lambda doc: json.dumps({**doc, "epoch": 6}), r"'epoch': 6, .* is no position"),
    (lambda doc: json.dumps({**doc, "session": 1}), r"'session': 1, 'epoch': 4, .* no position"),
    (lambda doc: json.dumps({**doc, "session": 2, "epoch": 0}), r"'session': 2, .* no position"),
    (lambda doc: json.dumps({**doc, "global_epoch": 5}), r"'global_epoch': 5\} is no position"),
], ids=["list", "not JSON", "string session", "negative session", "fractional epoch",
        "bool epoch", "epoch past its session", "epoch past the plan's end",
        "session past the plan's end", "global epoch of another position"])
def test_cli_resume_refuses_malformed_top_level(tmp_path, capsys, version, edit, match):
    # each used to end in a traceback, and a fractional epoch in curve rows
    path = as_schema(version, tmp_path)
    path.write_text(edit(json.loads(path.read_text())))
    capsys.readouterr()
    assert main(["train", "--config", str(V2_CONFIG), "--out", str(tmp_path / "resumed"),
                 "--resume", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: checkpoint {path}") and re.search(match, err)
    assert not (tmp_path / "resumed").exists()


@pytest.mark.parametrize("node, value", [
    (["agents"], None), (["agents"], 0), (["agents", 1, "critic", "weights"], None),
    (["agents", 0, "actor_target", "biases"], {}), (["agents", 1, "adam_actor", "m_weights"], "x"),
    (["agents", 1, "adam_critic", "v_biases"], 0.5),
])
def test_cli_resume_refuses_schema_4_field_that_is_no_list(tmp_path, capsys, node, value):
    # each used to end in a TypeError traceback
    path = copied(V4_CHECKPOINT, tmp_path)
    doc = json.loads(path.read_text())
    reduce(lambda parent, key: parent[key], node[:-1], doc)[node[-1]] = value
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["train", "--config", str(V2_CONFIG), "--out", str(tmp_path / "resumed"),
                 "--resume", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: checkpoint {path}: ")
    if len(node) == 1:
        assert f"agents is {type(value).__name__}, want a list" in err
    else:
        agent, field = node[1], ".".join(node[2:])
        assert f"agent {agent} has {field} {value!r}, want a list of arrays" in err
    assert not (tmp_path / "resumed").exists()


@pytest.mark.parametrize("version, refusal", [
    (4, "not JSON"), (5, "not JSON"), (4, "missing sidecar"), (5, "missing sidecar"),
    (4, "null-weights"), (4, "negative second moment"), (5, "negative second moment"),
    (4, "state row of the wrong width"), (5, "state row of the wrong width")])
def test_cli_refusal_names_the_checkpoint_once_at_the_front(tmp_path, capsys, version, refusal):
    # schema 5 refusals from the team reader, and every schema's refusals of
    # the state rows, used to name no file
    path = copied({4: V4_CHECKPOINT, 5: V5_CHECKPOINT}[version], tmp_path)
    config = json.loads(V2_CONFIG.read_text())
    doc = json.loads(path.read_text())
    if refusal == "not JSON":
        path.write_text(path.read_text()[:-1])
    elif refusal == "missing sidecar":
        sidecar_path(path).unlink()
    elif refusal == "null-weights":
        doc["agents"][1]["critic"]["weights"] = None
        path.write_text(json.dumps(doc))
    elif refusal == "negative second moment" and version == 4:
        # agent 1's actor second moments point at its weights, partly negative
        doc["agents"][1]["adam_actor"]["v_weights"][1]["offset"] = 0
        path.write_text(json.dumps(doc))
    elif refusal == "negative second moment":
        rewrite_sidecar(path, set_value("agents.1", -1, -1.0))  # adam_critic.v's last value
    else:  # cd_ddpg_partial observes 4 values, the snapshot's team 6
        config["run"]["strategy"] = "cd_ddpg_partial"
    (tmp_path / "config.json").write_text(json.dumps(config))
    capsys.readouterr()
    assert main(["train", "--config", str(tmp_path / "config.json"),
                 "--out", str(tmp_path / "resumed"), "--resume", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: checkpoint {path}") and err.count(str(path)) == 1, err
    assert not (tmp_path / "resumed").exists()


# One JSON node of a manifest replaced by each of these, at any depth
MANIFEST_VALUES = [None, True, -1, 0, 2**63, -2**63, 10**30, math.nan, math.inf, -math.inf, -0.0,
                   0.5, "x", [], {}, [1], [[]], [10**9], [2, 3]]


def json_nodes(doc, node=()):
    """The path of every node under `doc`: scalars, lists and objects."""
    children = (doc.items() if isinstance(doc, dict) else
                enumerate(doc) if isinstance(doc, list) else ())
    for key, child in children:
        yield (*node, key)
        yield from json_nodes(child, (*node, key))


@pytest.fixture(scope="module")
def editable_snapshots(tmp_path_factory):
    """Per schema 2-5, a snapshot of `tiny_config.json` at global epoch 4 and
    every node of its manifest but the sidecar record and the version."""
    snapshots = {}
    for version in (2, 3, 4, 5):
        path = as_schema(version, tmp_path_factory.mktemp(f"schema{version}"))
        nodes = json_nodes(json.loads(path.read_text()))
        snapshots[version] = path, [n for n in nodes if n[0] not in ("sidecar", "schema_version")]
    return load_config(V2_CONFIG), snapshots


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_manifest_with_one_node_replaced_loads_or_is_refused(editable_snapshots, data):
    # shapes are checked against the entries before anything is allocated,
    # so an edited size asks for no memory
    cfg, snapshots = editable_snapshots
    path, nodes = snapshots[data.draw(st.sampled_from(sorted(snapshots)), label="schema")]
    node = data.draw(st.sampled_from(nodes), label="node")
    edited = json.loads(path.read_text())
    reduce(lambda parent, key: parent[key], node[:-1], edited)[node[-1]] = data.draw(
        st.sampled_from(MANIFEST_VALUES), label="value")
    # beside the original, so the sidecar it names is found
    target = path.with_name("edited.json")
    target.write_text(json.dumps(edited))
    try:
        load_checkpoint(target, cfg)
    except (CheckpointIntegrityError, DigestMismatchError, SchemaVersionError):
        pass


def snapshot_plan(epochs: list[int], every: int) -> ExperimentConfig:
    """A tiny plan of sessions of `epochs` with a snapshot every `every` epochs;
    ([6], 3) is tests/data/final_snapshot_config.json."""
    return config_from_dict({
        "env": {"n": 2, "episode_length": 10, "evader_speed": 0.05, "capture_radius": 0.08},
        "curriculum": {"warmup_epochs": 2, "sessions": [
            {"v0": v0, "v_target": v0 - 0.2, "v_decay": e, "epochs": e,
             "use_scripted_warmup": v0 == 1.2}
            for e, v0 in zip(epochs, (1.2, 1.0))]},
        "ddpg": {"batch_size": 8, "buffer_capacity": 16,
                 "actor_hidden": [4], "critic_hidden": [4]},
        "run": {"seed": 3, "strategy": "cd_ddpg", "checkpoint_every": every},
    })


def file_names(out: Path) -> list[str]:
    return sorted(p.name for p in out.iterdir())


@pytest.mark.parametrize("epochs", [[6], [4, 5]])
def test_final_epoch_snapshot_shares_checkpoint_npz(tmp_path, epochs):
    cfg, last = snapshot_plan(epochs, 3), sum(epochs)
    out = run_training(cfg, out_dir=tmp_path)
    snapshot = out / f"checkpoint_epoch{last}.json"
    mid_run = [f"checkpoint_epoch{g}.{ext}" for g in range(3, last, 3) for ext in ("json", "npz")]
    assert file_names(out) == sorted(
        ["training_curve.csv", "checkpoint.json", "checkpoint.npz", snapshot.name, *mid_run])
    assert json.loads(snapshot.read_text())["sidecar"]["file"] == "checkpoint.npz"
    assert snapshot.read_bytes() == (out / "checkpoint.json").read_bytes()

    team, *position = load_checkpoint(snapshot, cfg)
    final_team, *final_position = load_checkpoint(out / "checkpoint.json", cfg)
    assert position == final_position  # session, epoch, global epoch and stream states
    assert_same_team(final_team, team)


# ([3, 3], 3) resumes at a session boundary, ([3, 3], 6) at the plan's end
@pytest.mark.parametrize("epochs, start", [([6], 3), ([6], 6), ([4, 5], 3), ([4, 5], 6),
                                           ([4, 5], 9), ([3, 3], 3), ([3, 3], 6)])
def test_resume_from_any_snapshot_ends_on_uninterrupted_bytes(tmp_path, epochs, start):
    cfg, last = snapshot_plan(epochs, 3), sum(epochs)
    full = run_training(cfg, out_dir=tmp_path / "full")
    resumed = run_training(cfg, out_dir=tmp_path / "resumed",
                           resume=full / f"checkpoint_epoch{start}.json")
    rows = (resumed / "training_curve.csv").read_text().splitlines()
    assert rows[2:] == (full / "training_curve.csv").read_text().splitlines()[2 + start:]
    # a resume that trains the last epoch writes its snapshot again
    names = ["checkpoint.json", "checkpoint.npz"]
    if start < last:
        names.append(f"checkpoint_epoch{last}.json")
    for name in names:
        assert (resumed / name).read_bytes() == (full / name).read_bytes(), name


def test_other_plan_lengths_keep_their_snapshots(tmp_path):
    # checkpoint_every is outside the config digest, so both runs write the same bytes
    own = run_training(snapshot_plan([6], 4), out_dir=tmp_path / "every4")
    shared = run_training(snapshot_plan([6], 2), out_dir=tmp_path / "every2")
    names = ["checkpoint.json", "checkpoint.npz", "checkpoint_epoch4.json",
             "checkpoint_epoch4.npz", "training_curve.csv"]
    assert file_names(own) == names
    assert json.loads((own / "checkpoint_epoch4.json").read_text())["sidecar"]["file"] == \
        "checkpoint_epoch4.npz"
    for name in names:
        assert (own / name).read_bytes() == (shared / name).read_bytes(), name


def test_stale_final_epoch_sidecar_removed(tmp_path):
    cfg = snapshot_plan([6], 3)
    run_training(cfg, out_dir=tmp_path / "earlier")
    stale = tmp_path / "out" / "checkpoint_epoch6.npz"
    stale.parent.mkdir()
    stale.write_bytes((tmp_path / "earlier" / "checkpoint.npz").read_bytes())
    run_training(cfg, out_dir=stale.parent)
    assert not stale.exists()
    load_checkpoint(stale.with_suffix(".json"), cfg)
