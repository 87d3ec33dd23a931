"""Checkpoint serialization: a JSON manifest plus an exact float64 .npz sidecar.

A checkpoint captures everything training needs to resume bit-for-bit: the
config digest, every agent's online/target networks and optimizer moments,
each agent's replay buffer contents, the curriculum position, and the states
of all random streams.

Schema version 4 writes two files. The JSON manifest at the given path holds
every scalar (schema version, config digest, curriculum position, random
stream states, hyperparameters, noise state, Adam step counters, buffer
bookkeeping). The arrays go to an uncompressed ``.npz`` sidecar with the
manifest's stem (``checkpoint_epoch5.json`` -> ``checkpoint_epoch5.npz``) as
flat float64 entries (the int64 break slots below aside), and the manifest
refers to each array by ``{"key", "offset", "shape"}``: its row-major values
start at ``offset`` in entry ``key``. All network and Adam arrays of agent i
share entry ``agents.i``, since reading one zip member costs far more than
its bytes; that entry is row i of the team's (n, S) state array, written as
it lies in memory, and each reference's offset is where its view starts in
the row. Agent i's filled ring slice ``obs[i, :size]`` is entry
``agents.i.buffer.obs``.

Each replay fact is written once, as the ring (``ddpg.ReplayBuffer``) holds
it. The team's rewards and terminal flags are the entries
``buffer.rewards`` and ``buffer.terminals``, which every agent's reference
names. A slot's action is no entry: it is the heading columns (the first
two) of the slot's next observation. Slot j's ``next_obs`` row is, bit for
bit, slot ``(j + 1) % size``'s ``obs`` row except at episode ends and at the
write head, so ``next_obs`` is no entry of its own either: its
``{"breaks", "rows"}`` manifest entry refers to the int64 entry
``agents.i.buffer.next_obs.breaks``, the strictly increasing slots whose row
differs (compared as raw bytes, so a NaN payload or -0.0 counts as a
difference), and to the float64 entry ``agents.i.buffer.next_obs.rows``,
those slots' rows. The writer takes the slots of the ring's end table whose
row differs, and loading fills that table with the stored rows. The break
slots are alike for every agent: when agent i's equal agent 0's bit for
bit, agent i's reference points at agent 0's entry instead of a copy.
Loading reads each sidecar entry once, when it is first needed, and a
reference equal to one already read is not read again. The sidecar's bytes
are a pure function of the state (zip entries carry a fixed timestamp), so
equal states give equal files.

The manifest records the sidecar's file name, byte size and SHA-256; loading
refuses a sidecar that is missing, truncated or altered, and a sidecar entry
that is not an object of those three fields or whose file is not a bare name
in the manifest's own directory, with ``CheckpointIntegrityError``. The
sidecar need not share the manifest's stem: when a training plan ends on a
snapshot epoch, the snapshot ``checkpoint_epoch{N}.json`` is a copy of the
final ``checkpoint.json`` manifest and names ``checkpoint.npz`` as its
sidecar, so deleting ``checkpoint.npz``, or a later run writing another
one into the same directory, breaks that snapshot too. The final
checkpoint never refers to a snapshot's sidecar, so deleting snapshots leaves
it whole. Loading fills the team that the config, whose digest it checks,
describes (``ddpg.make_team``), so the agent count and each agent's
observation width, hyperparameters and ring capacity must be the config's. A
team updates in lockstep, so loading also requires every agent's Adam step
counts and ring bookkeeping to agree, and refuses bookkeeping no ring of the
capacity can reach (one that has not wrapped writes at its size) and break
slots that are not int64, not strictly increasing or outside the ring.

Older schemas still load. Schema version 3 files store each agent's actions
as entry ``agents.i.buffer.actions`` and the rewards and terminal flags per
agent, sharing agent 0's entry where they are equal; schema version 2 files
hold every ring field of every agent as its own entry, with a dense
``next_obs``, which loading reduces to the same break slots and rows; schema
version 1 files are one JSON document whose arrays are inline
``{"shape", "data"}`` lists of decimal floats. Loading them refuses, naming
the agent, the field and the slot, a stored action that is not bit for bit
the heading columns of its slot's next observation, and, in every schema,
an agent's rewards or terminal flags that differ from agent 0's.
"""

from __future__ import annotations

import hashlib
import json
import math
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .config import ExperimentConfig
from .ddpg import ACTION_DIM, ReplayBuffer, TeamLearner, make_team, row_bytes
from .errors import CheckpointIntegrityError, DigestMismatchError, SchemaVersionError

CHECKPOINT_SCHEMA_VERSION = 4
READABLE_SCHEMA_VERSIONS = (1, 2, 3, 4)
_HASH_CHUNK = 1 << 18
_TOP_LEVEL = ("config_digest", "session", "epoch", "global_epoch", "agents", "rng_states")
# a sidecar entry by key, None when the sidecar has no such entry
_Entries = Callable[[str], "np.ndarray | None"]


def _array_ref(key: str, offset: int, a: np.ndarray) -> dict:
    return {"key": key, "offset": offset, "shape": list(a.shape)}


def _row_refs(key: str, row: np.ndarray, views: list[np.ndarray]) -> list[dict]:
    """References to views of a state row, which is sidecar entry ``key``."""
    return [_array_ref(key, (v.ctypes.data - row.ctypes.data) // row.itemsize, v) for v in views]


def _shape(doc: Any, where: str) -> list[int]:
    """A reference's shape: a list of sizes."""
    shape = doc.get("shape") if isinstance(doc, dict) else None
    if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
        raise CheckpointIntegrityError(f"{where}: shape {shape!r} is not a list of sizes")
    return shape


def _array_load(doc: dict, entries: _Entries, where: str,
                dtype: type = np.float64, whole: bool = False) -> np.ndarray:
    """Resolves one array doc: inline decimals (schema 1) or a sidecar slice.

    The values must be of ``dtype``; with ``whole``, a reference must cover
    its entry exactly, as every ring field's does.
    """
    shape = _shape(doc, where)
    if "data" in doc:
        try:
            values = np.array(doc["data"], dtype=np.float64).reshape(shape)
        except (TypeError, ValueError) as exc:
            raise CheckpointIntegrityError(f"{where}: inline values do not fit: {exc}") from exc
    else:
        key, start, count = doc.get("key"), doc.get("offset"), math.prod(shape)
        if not isinstance(key, str) or type(start) is not int:
            raise CheckpointIntegrityError(
                f"{where}: a reference needs a string 'key' and an integer 'offset', "
                f"got {key!r} and {start!r}")
        entry = entries(key)
        if entry is None or not 0 <= start <= entry.size - count:
            raise CheckpointIntegrityError(
                f"{where}: values {start}..{start + count} are not in sidecar entry {key!r}")
        if whole and (start, count) != (0, entry.size):
            raise CheckpointIntegrityError(
                f"{where}: refers to values {start}..{start + count} of sidecar entry {key!r}, "
                f"which holds {entry.size}")
        values = entry[start : start + count].reshape(shape)
    if values.dtype != dtype:
        raise CheckpointIntegrityError(
            f"{where}: values are {values.dtype}, want {np.dtype(dtype)}")
    return values


def _fill(views: list[np.ndarray], docs: list[dict], entries: _Entries,
          where: str, whole: bool = False) -> None:
    """Copies each referenced array into the team's view of the same shape."""
    if len(docs) != len(views):
        raise CheckpointIntegrityError(f"{where}: {len(docs)} arrays, want {len(views)}")
    for k, (view, doc) in enumerate(zip(views, docs)):
        if _shape(doc, f"{where}[{k}]") != list(view.shape):
            raise CheckpointIntegrityError(
                f"{where}[{k}]: shape {doc['shape']}, want {list(view.shape)}")
        view[...] = _array_load(doc, entries, f"{where}[{k}]", whole=whole)


_NETWORKS = ("actor", "critic", "actor_target", "critic_target")
# the activations every network runs (see nn), written for each network
_ACTIVATIONS = {"hidden_activation": "relu", "output_activation": "identity"}
_OPTIMIZERS = {"adam_actor": "actor", "adam_critic": "critic"}
_HYPERPARAMETERS = ("gamma", "tau", "lr_actor", "lr_critic", "clip_norm", "theta_ou", "sigma_ou")
_TEAM_FIELDS = ("rewards", "terminals")  # one per slot, for the whole team


def _ring_ref(arrays: dict[str, np.ndarray], i: int, name: str, values: np.ndarray,
              shared: bool = False) -> dict:
    """Writes agent i's ring values as entry ``agents.i.buffer.<name>``; a
    ``shared`` field refers instead to agent 0's entry when that holds the
    same bits."""
    flat = values.ravel()  # a view of a filled slice, which is contiguous
    own, first = f"agents.{i}.buffer.{name}", f"agents.0.buffer.{name}"
    theirs = arrays.get(first) if shared else None
    # memoryviews of the 64-bit words compare bit for bit, in C and without a temporary
    if (i > 0 and theirs is not None and theirs.dtype == flat.dtype
            and memoryview(theirs.view(np.uint64)) == memoryview(flat.view(np.uint64))):
        return _array_ref(first, 0, values)
    arrays[own] = flat
    return _array_ref(own, 0, values)


def _next_obs_breaks(obs: np.ndarray, next_obs: np.ndarray) -> np.ndarray:
    """The slots j whose next_obs row is not, bit for bit, obs row (j + 1) % size."""
    now, then = row_bytes(obs), row_bytes(next_obs)
    differs = np.empty(len(now), dtype=bool)
    differs[:-1] = then[:-1] != now[1:]
    differs[-1:] = then[-1:] != now[:1]
    return np.flatnonzero(differs).astype(np.int64, copy=False)


def _next_obs_load(ref: Any, obs: np.ndarray, entries: _Entries, where: str,
                   read: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Next observations as break slots and their rows: as stored (schemas 3
    and 4), or found in the dense field of schemas 1 and 2. Break slots are
    read once per reference: ``read`` holds them by the reference's JSON."""
    if not (isinstance(ref, dict) and "breaks" in ref):
        next_obs = np.empty_like(obs)
        _fill([next_obs], [ref], entries, where, whole=True)
        breaks = _next_obs_breaks(obs, next_obs)
        return breaks, next_obs[breaks]
    size, known = len(obs), _as_json(ref["breaks"])
    if known not in read:
        breaks = _array_load(ref["breaks"], entries, f"{where}.breaks", dtype=np.int64, whole=True)
        if breaks.ndim != 1 or (breaks.size and not (
                0 <= breaks[0] and breaks[-1] < size and np.all(breaks[1:] > breaks[:-1]))):
            raise CheckpointIntegrityError(
                f"{where}.breaks: slots must be strictly increasing in [0, {size})")
        read[known] = breaks
    breaks = read[known]
    if "rows" not in ref:
        raise CheckpointIntegrityError(f"{where} has no 'rows'")
    rows = _array_load(ref["rows"], entries, f"{where}.rows", whole=True)
    if rows.shape != (breaks.size, obs.shape[1]):
        raise CheckpointIntegrityError(
            f"{where}.rows: shape {list(rows.shape)}, want {[breaks.size, obs.shape[1]]} "
            "(one row per break slot)")
    return breaks, rows


def _as_json(ref: Any) -> str:
    return json.dumps(ref, sort_keys=True)


def _same_bits(values: np.ndarray, want: np.ndarray, where: str, what: str) -> None:
    """Refuses, naming the first slot, values that are not ``want`` bit for bit."""
    got, wanted = (row_bytes(a.reshape(len(a), math.prod(a.shape[1:]))) for a in (values, want))
    differs = np.flatnonzero(got != wanted)
    if differs.size:
        j = int(differs[0])
        raise CheckpointIntegrityError(
            f"{where} slot {j}: {values[j].tolist()!r} differs from {what}, {want[j].tolist()!r}")


def _ring_load(buf: ReplayBuffer, docs: list[dict], entries: _Entries,
               stored_actions: bool) -> None:
    """Fills the rings, whose bookkeeping is in place, from every agent's entry.

    The team's rewards and terminal flags are agent 0's, and every other
    agent's must hold the same bits; like the break slots, they are not read
    again where an agent's reference is agent 0's. Schemas 1-3 also store
    each slot's action, which must be, bit for bit, the heading columns of
    the slot's next observation.
    """
    ring = buf.filled()
    for name in _TEAM_FIELDS:
        first = _field(docs[0], 0, f"buffer.{name}")
        _fill([ring[name]], [first], entries, f"agent 0 buffer.{name}", whole=True)
        for i, doc in enumerate(docs[1:], start=1):
            # as JSON, in which -0.0 and 0.0 differ, as their bits do
            if _as_json(ref := _field(doc, i, f"buffer.{name}")) != _as_json(first):
                where, values = f"agent {i} buffer.{name}", np.empty_like(ring[name])
                _fill([values], [ref], entries, where, whole=True)
                _same_bits(values, ring[name], where, "agent 0's")
    breaks, read = [], {}
    for i, doc in enumerate(docs):
        obs, where = ring["obs"][i], f"agent {i} buffer"
        _fill([obs], [_field(doc, i, "buffer.obs")], entries, f"{where}.obs", whole=True)
        breaks.append(_next_obs_load(_field(doc, i, "buffer.next_obs"), obs, entries,
                                     f"{where}.next_obs", read))
        if stored_actions:
            heads = np.roll(obs[:, :ACTION_DIM], -1, axis=0)
            agent_breaks, rows = breaks[-1]
            heads[agent_breaks] = rows[:, :ACTION_DIM]
            actions = np.empty_like(heads)
            _fill([actions], [_field(doc, i, "buffer.actions")], entries, f"{where}.actions",
                  whole=True)
            _same_bits(actions, heads, f"{where}.actions",
                       "the next observation's heading columns")
    buf.load_next_obs_breaks(breaks)


def _agent_doc(team: TeamLearner, i: int, arrays: dict[str, np.ndarray]) -> dict:
    """Agent i's manifest entry; its state row and filled ring slices go to ``arrays``."""
    key, row, buf = f"agents.{i}", team.state[i], team.buffer
    arrays[key] = row
    doc: dict[str, Any] = {"obs_dim": team.obs_dim}
    doc.update((name, getattr(team.ddpg, name)) for name in _HYPERPARAMETERS)
    for name in _NETWORKS:
        net = getattr(team, name)
        weights, biases = net.layers(net.flat[i])
        doc[name] = {"weights": _row_refs(key, row, weights),
                     "biases": _row_refs(key, row, biases), **_ACTIVATIONS}
    for name, net_name in _OPTIMIZERS.items():
        state, net = getattr(team, name), getattr(team, net_name)
        doc[name] = {}
        for moment in ("m", "v"):
            weights, biases = net.layers(getattr(state, moment)[i])
            doc[name][f"{moment}_weights"] = _row_refs(key, row, weights)
            doc[name][f"{moment}_biases"] = _row_refs(key, row, biases)
        doc[name]["step"] = state.step
    doc["noise_state"] = team.noise[i].tolist()
    doc["buffer"] = {"capacity": buf.capacity, "obs_dim": buf.obs_dim,
                     "next": buf._next, "size": buf._size}
    ring = buf.filled()
    doc["buffer"]["obs"] = _ring_ref(arrays, i, "obs", ring["obs"][i])
    for name in _TEAM_FIELDS:
        doc["buffer"][name] = _array_ref(f"buffer.{name}", 0, ring[name])
    breaks, rows = buf.next_obs_breaks(i)
    doc["buffer"]["next_obs"] = {
        "breaks": _ring_ref(arrays, i, "next_obs.breaks", breaks, shared=True),
        "rows": _ring_ref(arrays, i, "next_obs.rows", rows)}
    return doc


def _field(doc: dict, i: int, path: str) -> Any:
    node: Any = doc
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            raise CheckpointIntegrityError(f"agent {i} has no {path!r}")
        node = node[part]
    return node


def _agreed(docs: list[dict], path: str) -> int:
    """The integer at ``path``, which every agent of a team must hold alike."""
    first = _field(docs[0], 0, path)
    for i, doc in enumerate(docs[1:], start=1):
        value = _field(doc, i, path)
        if value != first:
            raise CheckpointIntegrityError(
                f"agent {i} has {path} {value!r} but agent 0 has {first!r}; "
                "a team's agents update in lockstep")
    if type(first) is not int:
        raise CheckpointIntegrityError(f"agent 0 has {path} {first!r}, want an integer")
    return first


def _team_load(docs: list[dict], entries: _Entries, config: ExperimentConfig,
               replay: bool, version: int) -> TeamLearner:
    """Fills the team ``config`` describes from the per-agent entries, which must
    hold the config's value of every scalar it fixes and agree on the others;
    without ``replay`` the rings stay empty and no ring entry is read."""
    team = make_team(config)
    if len(docs) != team.n:
        raise CheckpointIntegrityError(
            f"checkpoint holds {len(docs)} agents, but the config's env.n is {team.n}")
    strategy = f"run.strategy {config.run.strategy!r}"  # which fixes the observation width
    fixed = {"obs_dim": (team.obs_dim, strategy), "buffer.obs_dim": (team.obs_dim, strategy),
             "buffer.capacity": (team.buffer.capacity, "ddpg.buffer_capacity"),
             **{name: (getattr(team.ddpg, name), f"ddpg.{name}") for name in _HYPERPARAMETERS}}
    for i, doc in enumerate(docs):
        for path, (want, source) in fixed.items():
            if (got := _field(doc, i, path)) != want:
                raise CheckpointIntegrityError(
                    f"agent {i} has {path} {got!r}, but the config's {source} gives {want!r}")
    ring = {name: _agreed(docs, f"buffer.{name}") for name in ("next", "size")}
    capacity = team.buffer.capacity
    # a ring that has not wrapped yet writes at its size
    if not (0 <= ring["next"] < capacity and 0 <= ring["size"] <= capacity
            and (ring["size"] == capacity or ring["next"] == ring["size"])):
        raise CheckpointIntegrityError(
            f"replay bookkeeping {ring} does not fit a ring of {capacity} transitions")
    for name in _OPTIMIZERS:
        getattr(team, name).step = _agreed(docs, f"{name}.step")
    for i, doc in enumerate(docs):
        for name in _NETWORKS:
            for path, want in _ACTIVATIONS.items():
                if (got := _field(doc, i, f"{name}.{path}")) != want:
                    raise CheckpointIntegrityError(
                        f"agent {i} has {name}.{path} {got!r}; the networks run only {want!r}")
            net = getattr(team, name)
            weights, biases = net.layers(net.flat[i])
            refs = _field(doc, i, f"{name}.weights") + _field(doc, i, f"{name}.biases")
            _fill(weights + biases, refs, entries, f"agent {i} {name}")
        for name, net_name in _OPTIMIZERS.items():
            net, state = getattr(team, net_name), getattr(team, name)
            for moment in ("m", "v"):
                weights, biases = net.layers(getattr(state, moment)[i])
                refs = (_field(doc, i, f"{name}.{moment}_weights")
                        + _field(doc, i, f"{name}.{moment}_biases"))
                _fill(weights + biases, refs, entries, f"agent {i} {name}.{moment}")
        noise = _field(doc, i, "noise_state")
        if not (isinstance(noise, list) and len(noise) == team.noise.shape[1]
                and all(type(x) in (int, float) for x in noise)):
            raise CheckpointIntegrityError(
                f"agent {i} has noise_state {noise!r}, want {team.noise.shape[1]} numbers")
        team.noise[i] = noise
    if replay:
        team.buffer._next, team.buffer._size = ring["next"], ring["size"]
        _ring_load(team.buffer, docs, entries, stored_actions=version < 4)
    return team


def sidecar_path(path: str | Path) -> Path:
    """The .npz file holding the arrays of the manifest at ``path``."""
    return Path(path).with_suffix(".npz")


def _sha256(path: Path) -> str:
    # one buffer read into again and again, not a new chunk per read
    h, chunk = hashlib.sha256(), memoryview(bytearray(_HASH_CHUNK))
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(chunk):
            h.update(chunk[:size])
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
    ring = team.buffer.filled()
    arrays = {f"buffer.{name}": ring[name] for name in _TEAM_FIELDS}
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
    _write_manifest(target, json.dumps(doc))


def alias_checkpoint(final: str | Path, snapshot: str | Path) -> None:
    """Writes the manifest at ``final`` again at ``snapshot``, naming the same
    sidecar, and removes the sidecar of ``snapshot``'s own stem that an
    earlier run may have left there.

    A training plan that ends on a snapshot epoch gives its final checkpoint
    and that snapshot the same content, so the snapshot borrows the final
    checkpoint's sidecar instead of writing a second copy of it.
    """
    snapshot = Path(snapshot)
    _write_manifest(snapshot, Path(final).read_text())
    sidecar_path(snapshot).unlink(missing_ok=True)


def _write_manifest(target: Path, text: str) -> None:
    tmp = target.with_suffix(target.suffix + ".tmp")
    tmp.write_text(text)
    tmp.replace(target)


_SIDECAR_FIELDS = {"file": str, "bytes": int, "sha256": str}


def _verified_sidecar(manifest: Path, doc: Any) -> Path:
    """The manifest's sidecar, a file in the manifest's own directory, after
    checking its size and SHA-256."""
    if not isinstance(doc, dict):
        raise CheckpointIntegrityError(
            f"checkpoint {manifest}: sidecar is {type(doc).__name__}, want an object")
    for name, kind in _SIDECAR_FIELDS.items():
        if type(doc.get(name)) is not kind:
            raise CheckpointIntegrityError(
                f"checkpoint {manifest}: sidecar.{name} is {doc.get(name)!r}, "
                f"want {'an integer' if kind is int else 'a string'}")
    if Path(doc["file"]).name != doc["file"]:
        raise CheckpointIntegrityError(
            f"checkpoint {manifest}: sidecar.file {doc['file']!r} is not a file name in "
            "the manifest's directory")
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
    path: str | Path, config: ExperimentConfig, replay: bool = True
) -> tuple[TeamLearner, int, int, int, dict[str, Any]]:
    """Returns (team, session, epoch, global_epoch, rng_states).

    The checkpoint's config digest must be `config`'s, or its legacy digest
    (written while `env` held an unread `seed` field at 0); else
    DigestMismatchError. Raises CheckpointIntegrityError, naming the field
    and the agent, when the manifest or an agent's entry lacks a field, the
    agent count, an observation width, a hyperparameter or a ring capacity
    is not the config's, an agent disagrees with agent 0 on an Adam step
    count, the ring bookkeeping or, slot by slot, the team's rewards and
    terminal flags, a stored action (schemas 1-3) is not its slot's next
    observation's heading columns, a count or an offset is not an integer, a
    network's activation is not ReLU hidden and identity output, an array
    reference is malformed or of the wrong shape, or the sidecar entry is
    malformed or names a file outside the manifest's directory. The arrays
    are read from the file the manifest's ``sidecar.file`` names, which is
    ``checkpoint.npz`` for a plan's final-epoch snapshot. Without ``replay``
    the team's rings stay empty and no ring entry is read or checked, for a
    caller that only acts with the networks; the sidecar's size and SHA-256,
    the ring bookkeeping and the networks are checked as before.
    """
    manifest = Path(path)
    doc = json.loads(manifest.read_text())
    version = doc.get("schema_version")
    if version not in READABLE_SCHEMA_VERSIONS:
        raise SchemaVersionError(f"unknown checkpoint schema version {version!r}")
    for name in _TOP_LEVEL + (("sidecar",) if version > 1 else ()):
        if name not in doc:
            raise CheckpointIntegrityError(f"checkpoint {manifest} has no {name!r}")
    if doc["config_digest"] not in (config.digest(), config.legacy_digest()):
        raise DigestMismatchError(
            "checkpoint was produced by a different config "
            f"(digest {doc['config_digest'][:12]}... != {config.digest()[:12]}...)"
        )
    if version == 1:  # which inlines its arrays
        team = _team_load(doc["agents"], {}.get, config, replay, version)
    else:
        with np.load(_verified_sidecar(manifest, doc["sidecar"]), allow_pickle=False) as z:
            # each lookup rereads the member; the references to one entry are consecutive
            entries = lru_cache(maxsize=1)(lambda key: z[key] if key in z.files else None)
            team = _team_load(doc["agents"], entries, config, replay, version)
    return team, doc["session"], doc["epoch"], doc["global_epoch"], doc["rng_states"]
