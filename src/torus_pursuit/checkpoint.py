"""Checkpoint serialization: a JSON manifest plus an exact float64 .npz sidecar.

A checkpoint captures everything training needs to resume bit-for-bit: the
config digest, every agent's online/target networks and optimizer moments,
each agent's replay buffer contents, the curriculum position, and the states
of all random streams.

Schema version 2 writes two files. The JSON manifest at the given path holds
every scalar (schema version, config digest, curriculum position, random
stream states, hyperparameters, noise state, Adam step counters, buffer
bookkeeping). The arrays go to an uncompressed ``.npz`` sidecar with the
manifest's stem (``checkpoint_epoch5.json`` -> ``checkpoint_epoch5.npz``) as
flat float64 entries, and the manifest refers to each array by
``{"key", "offset", "shape"}``: its row-major values start at ``offset`` in
entry ``key``. All network and Adam arrays of agent i share entry
``agents.i``, since reading one zip member costs far more than its bytes;
that entry is row i of the team's (n, S) state array, written as it lies in
memory, and each reference's offset is where its view starts in the row.
Each replay-buffer field of agent i's filled ring slice is its own entry
(``agents.i.buffer.obs`` is ``obs[i, :size]`` ...). The sidecar's bytes are
a pure function of the state (zip entries carry a fixed timestamp), so equal
states give equal files.

The manifest records the sidecar's file name, byte size and SHA-256; loading
refuses a sidecar that is missing, truncated or altered with
``CheckpointIntegrityError``. A team updates in lockstep, so loading also
requires every agent's hyperparameters, Adam step counts and ring
bookkeeping to agree. Schema version 1 files, one JSON document whose
arrays are inline ``{"shape", "data"}`` lists of decimal floats, still load.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .config import ExperimentConfig
from .ddpg import TeamLearner
from .errors import CheckpointIntegrityError, DigestMismatchError, SchemaVersionError

CHECKPOINT_SCHEMA_VERSION = 2
READABLE_SCHEMA_VERSIONS = (1, 2)
_HASH_CHUNK = 1 << 20


def _array_ref(key: str, offset: int, a: np.ndarray) -> dict:
    return {"key": key, "offset": offset, "shape": list(a.shape)}


def _row_refs(key: str, row: np.ndarray, views: list[np.ndarray]) -> list[dict]:
    """References to views of a state row, which is sidecar entry ``key``."""
    return [_array_ref(key, (v.ctypes.data - row.ctypes.data) // row.itemsize, v) for v in views]


def _array_load(doc: dict, arrays: Mapping[str, np.ndarray], where: str) -> np.ndarray:
    """Resolves one array doc: inline decimals (schema 1) or a sidecar slice."""
    shape = doc["shape"]
    if "data" in doc:
        return np.array(doc["data"], dtype=np.float64).reshape(shape)
    entry = arrays.get(doc["key"])
    start, count = doc["offset"], math.prod(shape)
    if entry is None or not 0 <= start <= entry.size - count:
        raise CheckpointIntegrityError(
            f"{where}: values {start}..{start + count} are not in sidecar entry {doc['key']!r}")
    return entry[start : start + count].reshape(shape)


def _fill(views: list[np.ndarray], docs: list[dict], arrays: Mapping[str, np.ndarray],
          where: str) -> None:
    """Copies each referenced array into the team's view of the same shape."""
    if len(docs) != len(views):
        raise CheckpointIntegrityError(f"{where}: {len(docs)} arrays, want {len(views)}")
    for k, (view, doc) in enumerate(zip(views, docs)):
        if list(doc["shape"]) != list(view.shape):
            raise CheckpointIntegrityError(
                f"{where}[{k}]: shape {doc['shape']}, want {list(view.shape)}")
        view[...] = _array_load(doc, arrays, f"{where}[{k}]")


_NETWORKS = ("actor", "critic", "actor_target", "critic_target")
_OPTIMIZERS = {"adam_actor": "actor", "adam_critic": "critic"}
_HYPERPARAMETERS = ("obs_dim", "gamma", "tau", "lr_actor", "lr_critic", "clip_norm",
                    "theta_ou", "sigma_ou")
_BUFFER_FIELDS = ("obs", "actions", "rewards", "next_obs", "terminals")


def _agent_doc(team: TeamLearner, i: int, arrays: dict[str, np.ndarray]) -> dict:
    """Agent i's manifest entry; its state row and filled ring slices go to ``arrays``."""
    key, row, noise, buf = f"agents.{i}", team.state[i], team.noise[i], team.buffer
    arrays[key] = row
    doc: dict[str, Any] = {
        "obs_dim": team.obs_dim,
        "gamma": team.gamma,
        "tau": team.tau,
        "lr_actor": team.lr_actor,
        "lr_critic": team.lr_critic,
        "clip_norm": team.clip_norm,
        "theta_ou": noise.theta,
        "sigma_ou": noise.sigma,
    }
    for name in _NETWORKS:
        net = getattr(team, name).row(i)
        doc[name] = {
            "weights": _row_refs(key, row, net.weights),
            "biases": _row_refs(key, row, net.biases),
            "hidden_activation": net.hidden_activation,
            "output_activation": net.output_activation,
        }
    for name, net_name in _OPTIMIZERS.items():
        state, net = getattr(team, name), getattr(team, net_name)
        doc[name] = {}
        for moment in ("m", "v"):
            weights, biases = net.layers(getattr(state, moment)[i])
            doc[name][f"{moment}_weights"] = _row_refs(key, row, weights)
            doc[name][f"{moment}_biases"] = _row_refs(key, row, biases)
        doc[name]["step"] = state.step
    doc["noise_state"] = noise.state.tolist()
    doc["buffer"] = {"capacity": buf.capacity, "obs_dim": buf.obs_dim,
                     "next": buf._next, "size": buf._size}
    for name in _BUFFER_FIELDS:
        entry, filled = f"{key}.buffer.{name}", getattr(buf, f"_{name}")[i, : buf._size]
        arrays[entry] = filled.ravel()  # a view: the slice is contiguous
        doc["buffer"][name] = _array_ref(entry, 0, filled)
    return doc


def _field(doc: dict, i: int, path: str) -> Any:
    node: Any = doc
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            raise CheckpointIntegrityError(f"agent {i} has no {path!r}")
        node = node[part]
    return node


def _agreed(docs: list[dict], path: str) -> Any:
    """The value at ``path``, which every agent of a team must hold alike."""
    first = _field(docs[0], 0, path)
    for i, doc in enumerate(docs[1:], start=1):
        value = _field(doc, i, path)
        if value != first:
            raise CheckpointIntegrityError(
                f"agent {i} has {path} {value!r} but agent 0 has {first!r}; "
                "a team's agents update in lockstep")
    return first


def _team_load(docs: list[dict], arrays: Mapping[str, np.ndarray]) -> TeamLearner:
    """Builds the team from the per-agent entries, which must agree on every scalar."""
    if not docs:
        raise CheckpointIntegrityError("checkpoint holds no agents")
    hyper = {name: _agreed(docs, name) for name in _HYPERPARAMETERS}
    ring = {name: _agreed(docs, f"buffer.{name}")
            for name in ("capacity", "obs_dim", "next", "size")}
    if not (ring["obs_dim"] == hyper["obs_dim"] and 0 <= ring["next"] < ring["capacity"]
            and 0 <= ring["size"] <= ring["capacity"]):
        raise CheckpointIntegrityError(
            f"replay bookkeeping {ring} does not fit observations of {hyper['obs_dim']} inputs")
    hidden = {  # agent 0's layer sizes; every agent's arrays are checked against them
        net: tuple(_field(ref, 0, "shape")[0] for ref in _field(docs[0], 0, f"{net}.weights")[:-1])
        for net in _OPTIMIZERS.values()
    }
    team = TeamLearner(
        len(docs), hyper["obs_dim"], actor_hidden=hidden["actor"], critic_hidden=hidden["critic"],
        gamma=hyper["gamma"], tau=hyper["tau"], lr_actor=hyper["lr_actor"],
        lr_critic=hyper["lr_critic"], clip_norm=hyper["clip_norm"],
        buffer_capacity=ring["capacity"], theta_ou=hyper["theta_ou"], sigma_ou=hyper["sigma_ou"],
    )
    for name in _NETWORKS:
        net = getattr(team, name)
        net.hidden_activation = _agreed(docs, f"{name}.hidden_activation")
        net.output_activation = _agreed(docs, f"{name}.output_activation")
    for name in _OPTIMIZERS:
        getattr(team, name).step = _agreed(docs, f"{name}.step")
    team.buffer._next, team.buffer._size = ring["next"], ring["size"]
    for i, doc in enumerate(docs):
        for name in _NETWORKS:
            net = getattr(team, name).row(i)
            refs = _field(doc, i, f"{name}.weights") + _field(doc, i, f"{name}.biases")
            _fill(net.weights + net.biases, refs, arrays, f"agent {i} {name}")
        for name, net_name in _OPTIMIZERS.items():
            net, state = getattr(team, net_name), getattr(team, name)
            for moment in ("m", "v"):
                weights, biases = net.layers(getattr(state, moment)[i])
                refs = (_field(doc, i, f"{name}.{moment}_weights")
                        + _field(doc, i, f"{name}.{moment}_biases"))
                _fill(weights + biases, refs, arrays, f"agent {i} {name}.{moment}")
        team.noise[i].state[...] = _field(doc, i, "noise_state")
        for name in _BUFFER_FIELDS:
            filled = getattr(team.buffer, f"_{name}")[i, : ring["size"]]
            refs = [_field(doc, i, f"buffer.{name}")]
            _fill([filled], refs, arrays, f"agent {i} buffer.{name}")
    return team


def sidecar_path(path: str | Path) -> Path:
    """The .npz file holding the arrays of the manifest at ``path``."""
    return Path(path).with_suffix(".npz")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(_HASH_CHUNK):
            h.update(chunk)
    return h.hexdigest()


def save_checkpoint(
    path: str | Path,
    config: ExperimentConfig,
    team: TeamLearner,
    session: int,
    epoch: int,
    global_epoch: int,
    rng_states: dict[str, Any],
) -> None:
    """Writes the sidecar, then the manifest, each via a temp file and replace."""
    target = Path(path)
    sidecar = sidecar_path(target)
    arrays: dict[str, np.ndarray] = {}
    agents = [_agent_doc(team, i, arrays) for i in range(team.n)]
    target.parent.mkdir(parents=True, exist_ok=True)

    # np.savez appends ".npz" to a str path that lacks it, so hand it a file.
    sidecar_tmp = sidecar.with_suffix(sidecar.suffix + ".tmp")
    with open(sidecar_tmp, "wb") as fh:
        np.savez(fh, **arrays)
    sidecar_doc = {
        "file": sidecar.name,
        "bytes": sidecar_tmp.stat().st_size,
        "sha256": _sha256(sidecar_tmp),
    }
    sidecar_tmp.replace(sidecar)

    doc = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "config_digest": config.digest(),
        "session": session,
        "epoch": epoch,
        "global_epoch": global_epoch,
        "agents": agents,
        "rng_states": rng_states,
        "sidecar": sidecar_doc,
    }
    tmp = target.with_suffix(target.suffix + ".tmp")
    tmp.write_text(json.dumps(doc))
    tmp.replace(target)


def _verified_sidecar(manifest: Path, doc: dict) -> Path:
    """The manifest's sidecar, after checking its size and SHA-256."""
    sidecar = manifest.parent / doc["file"]
    where = f"checkpoint {manifest}: sidecar {sidecar}"
    if not sidecar.is_file():
        raise CheckpointIntegrityError(f"{where} is missing")
    size = sidecar.stat().st_size
    if size != doc["bytes"]:
        raise CheckpointIntegrityError(f"{where} holds {size} bytes, manifest records {doc['bytes']}")
    if _sha256(sidecar) != doc["sha256"]:
        raise CheckpointIntegrityError(f"{where} does not match the manifest's SHA-256")
    return sidecar


def load_checkpoint(
    path: str | Path, config: ExperimentConfig
) -> tuple[TeamLearner, int, int, int, dict[str, Any]]:
    """Returns (team, session, epoch, global_epoch, rng_states).

    Raises CheckpointIntegrityError, naming the field and the agent, when an
    agent's entry lacks a field, disagrees with agent 0 on a hyperparameter,
    an Adam step count or the ring bookkeeping, or holds an array of the
    wrong shape.
    """
    manifest = Path(path)
    doc = json.loads(manifest.read_text())
    version = doc.get("schema_version")
    if version not in READABLE_SCHEMA_VERSIONS:
        raise SchemaVersionError(f"unknown checkpoint schema version {version!r}")
    if doc["config_digest"] != config.digest():
        raise DigestMismatchError(
            "checkpoint was produced by a different config "
            f"(digest {doc['config_digest'][:12]}... != {config.digest()[:12]}...)"
        )
    arrays: dict[str, np.ndarray] = {}  # schema 1 inlines its arrays
    if version > 1:
        with np.load(_verified_sidecar(manifest, doc["sidecar"]), allow_pickle=False) as z:
            arrays = {key: z[key] for key in z.files}  # each lookup rereads the member
    team = _team_load(doc["agents"], arrays)
    return team, doc["session"], doc["epoch"], doc["global_epoch"], doc["rng_states"]
