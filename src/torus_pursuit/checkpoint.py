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
each replay-buffer field of the filled slice is its own entry
(``agents.i.buffer.obs`` ...). The sidecar's bytes are a pure function of the
state (zip entries carry a fixed timestamp), so equal states give equal files.

The manifest records the sidecar's file name, byte size and SHA-256; loading
refuses a sidecar that is missing, truncated or altered with
``CheckpointIntegrityError``. Schema version 1 files, one JSON document whose
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
from .ddpg import AgentLearner, OuNoise, ReplayBuffer
from .errors import CheckpointIntegrityError, DigestMismatchError, SchemaVersionError
from .nn import AdamState, MlpParams

CHECKPOINT_SCHEMA_VERSION = 2
READABLE_SCHEMA_VERSIONS = (1, 2)
_HASH_CHUNK = 1 << 20


def _array_doc(arrays: dict[str, list[np.ndarray]], key: str, a: np.ndarray) -> dict:
    """Appends ``a`` to sidecar entry ``key``; returns the manifest's reference."""
    chunks = arrays.setdefault(key, [])
    offset = sum(c.size for c in chunks)
    chunks.append(a.ravel())
    return {"key": key, "offset": offset, "shape": list(a.shape)}


def _array_load(doc: dict, arrays: Mapping[str, np.ndarray]) -> np.ndarray:
    """Resolves one array doc: inline decimals (schema 1) or a sidecar slice."""
    if "data" in doc:
        return np.array(doc["data"], dtype=np.float64).reshape(doc["shape"])
    start = doc["offset"]
    return arrays[doc["key"]][start : start + math.prod(doc["shape"])].reshape(doc["shape"])


def _list_doc(arrays: dict, key: str, items: list[np.ndarray]) -> list[dict]:
    return [_array_doc(arrays, key, a) for a in items]


def _list_load(docs: list[dict], arrays: Mapping[str, np.ndarray]) -> list[np.ndarray]:
    return [_array_load(d, arrays) for d in docs]


def _params_doc(p: MlpParams, arrays: dict, key: str) -> dict:
    return {
        "weights": _list_doc(arrays, key, p.weights),
        "biases": _list_doc(arrays, key, p.biases),
        "hidden_activation": p.hidden_activation,
        "output_activation": p.output_activation,
    }


def _params_load(doc: dict, arrays: Mapping[str, np.ndarray]) -> MlpParams:
    return MlpParams.from_layers(
        _list_load(doc["weights"], arrays),
        _list_load(doc["biases"], arrays),
        doc["hidden_activation"],
        doc["output_activation"],
    )


def _adam_doc(s: AdamState, net: MlpParams, arrays: dict, key: str) -> dict:
    """Each moment as per-layer views of ``net``'s layout, as schema 2 stores it."""
    doc: dict[str, Any] = {}
    for name, vec in (("m", s.m), ("v", s.v)):
        weights, biases = net.layers(vec)
        doc[f"{name}_weights"] = _list_doc(arrays, key, weights)
        doc[f"{name}_biases"] = _list_doc(arrays, key, biases)
    doc["step"] = s.step
    return doc


def _adam_load(doc: dict, arrays: Mapping[str, np.ndarray]) -> AdamState:
    def moment(name: str) -> np.ndarray:
        layers = _list_load(doc[f"{name}_weights"] + doc[f"{name}_biases"], arrays)
        return np.concatenate([a.ravel() for a in layers])

    return AdamState(moment("m"), moment("v"), step=doc["step"])


_BUFFER_FIELDS = ("obs", "actions", "rewards", "next_obs", "terminals")


def _buffer_doc(b: ReplayBuffer, arrays: dict, key: str) -> dict:
    doc: dict[str, Any] = {
        "capacity": b.capacity,
        "obs_dim": b.obs_dim,
        "next": b._next,
        "size": b._size,
    }
    for name in _BUFFER_FIELDS:
        doc[name] = _array_doc(arrays, f"{key}.{name}", getattr(b, f"_{name}")[: b._size])
    return doc


def _buffer_load(doc: dict, arrays: Mapping[str, np.ndarray]) -> ReplayBuffer:
    buf = ReplayBuffer(doc["capacity"], doc["obs_dim"])
    size = doc["size"]
    for name in _BUFFER_FIELDS:
        getattr(buf, f"_{name}")[:size] = _array_load(doc[name], arrays)
    buf._next = doc["next"]
    buf._size = size
    return buf


_NETWORKS = ("actor", "critic", "actor_target", "critic_target")
_OPTIMIZERS = {"adam_actor": "actor", "adam_critic": "critic"}


def _learner_doc(learner: AgentLearner, arrays: dict, key: str) -> dict:
    doc: dict[str, Any] = {
        "obs_dim": learner.obs_dim,
        "gamma": learner.gamma,
        "tau": learner.tau,
        "lr_actor": learner.lr_actor,
        "lr_critic": learner.lr_critic,
        "clip_norm": learner.clip_norm,
        "theta_ou": learner.noise.theta,
        "sigma_ou": learner.noise.sigma,
    }
    for name in _NETWORKS:
        doc[name] = _params_doc(getattr(learner, name), arrays, key)
    for name, net in _OPTIMIZERS.items():
        doc[name] = _adam_doc(getattr(learner, name), getattr(learner, net), arrays, key)
    doc["noise_state"] = learner.noise.state.tolist()
    doc["buffer"] = _buffer_doc(learner.buffer, arrays, f"{key}.buffer")
    return doc


def _learner_load(doc: dict, arrays: Mapping[str, np.ndarray]) -> AgentLearner:
    learner = AgentLearner.__new__(AgentLearner)
    learner.obs_dim = doc["obs_dim"]
    learner.gamma = doc["gamma"]
    learner.tau = doc["tau"]
    learner.lr_actor = doc["lr_actor"]
    learner.lr_critic = doc["lr_critic"]
    learner.clip_norm = doc["clip_norm"]
    for name in _NETWORKS:
        setattr(learner, name, _params_load(doc[name], arrays))
    for name in _OPTIMIZERS:
        setattr(learner, name, _adam_load(doc[name], arrays))
    learner.noise = OuNoise(doc["theta_ou"], doc["sigma_ou"])
    learner.noise.state = np.array(doc["noise_state"], dtype=np.float64)
    learner.buffer = _buffer_load(doc["buffer"], arrays)
    return learner


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
    learners: list[AgentLearner],
    session: int,
    epoch: int,
    global_epoch: int,
    rng_states: dict[str, Any],
) -> None:
    """Writes the sidecar, then the manifest, each via a temp file and replace."""
    target = Path(path)
    sidecar = sidecar_path(target)
    arrays: dict[str, list[np.ndarray]] = {}
    agents = [_learner_doc(lr, arrays, f"agents.{i}") for i, lr in enumerate(learners)]
    entries = {k: c[0] if len(c) == 1 else np.concatenate(c) for k, c in arrays.items()}
    target.parent.mkdir(parents=True, exist_ok=True)

    # np.savez appends ".npz" to a str path that lacks it, so hand it a file.
    sidecar_tmp = sidecar.with_suffix(sidecar.suffix + ".tmp")
    with open(sidecar_tmp, "wb") as fh:
        np.savez(fh, **entries)
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
) -> tuple[list[AgentLearner], int, int, int, dict[str, Any]]:
    """Returns (learners, session, epoch, global_epoch, rng_states)."""
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
    learners = [_learner_load(d, arrays) for d in doc["agents"]]
    return learners, doc["session"], doc["epoch"], doc["global_epoch"], doc["rng_states"]
